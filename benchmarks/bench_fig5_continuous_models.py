"""Figure 5: guaranteed bounds for non-recursive continuous models.

Four models — coinBias, max of two normals, the binary Gaussian mixture and
Neal's funnel — get histogram-shaped guaranteed bounds; importance sampling
provides the reference series the bounds must contain, and (for the GMM) a
mode-collapsed HMC run is flagged as violating them (the Fig. 5c observation).
Each model runs through one ``Model`` facade so the guaranteed-bounds
histogram and the sampler cross-checks share the program object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import AnalysisOptions, Model
from repro.inference import hmc
from repro.models import (
    binary_gmm_log_density,
    binary_gmm_program,
    coin_bias_program,
    max_of_normals_program,
    neals_funnel_program,
)

from bench_utils import TINY, emit, scaled

_BOX_OPTIONS = AnalysisOptions(splits_per_dimension=scaled(80, 16), analyzers=("box",))


def _summarise(name: str, histogram, extra: list[str] | None = None) -> None:
    lines = histogram.summary_lines()
    if extra:
        lines.extend(extra)
    emit(name, lines)


def _is_reference(model, rng, count=scaled(20_000, 3_000)):
    result = model.sample(count, method="importance", rng=rng)
    return result.resample(count // 2, rng)


def test_fig5a_coin_bias(bench_once, rng):
    model = Model(coin_bias_program(), _BOX_OPTIONS)
    histogram = bench_once(model.histogram, 0.0, 1.0, 10)
    samples = _is_reference(model, rng)
    report = histogram.validate_samples(samples, tolerance=0.02)
    _summarise(
        "fig5a_coin_bias", histogram, [f"IS consistent: {report.consistent}"]
    )
    assert histogram.z_lower > 0
    if not TINY:
        assert report.consistent


def test_fig5b_max_of_normals(bench_once, rng):
    model = Model(max_of_normals_program(), _BOX_OPTIONS)
    histogram = bench_once(model.histogram, -3.0, 3.0, 12)
    samples = _is_reference(model, rng)
    report = histogram.validate_samples(samples, tolerance=0.02)
    _summarise(
        "fig5b_max_of_normals", histogram, [f"IS consistent: {report.consistent}"]
    )
    if not TINY:
        assert report.consistent
    # The posterior of max(X, Y) is right-skewed: more guaranteed mass above 0 than below.
    upper_mass_above = sum(
        upper for bound, (lower, upper) in zip(histogram.buckets, histogram.normalised_bounds())
        if bound.bucket.lo >= 0.0
    )
    lower_mass_below = sum(
        lower for bound, (lower, upper) in zip(histogram.buckets, histogram.normalised_bounds())
        if bound.bucket.hi <= 0.0
    )
    assert upper_mass_above > lower_mass_below


def test_fig5c_binary_gmm(bench_once, rng):
    model = Model(
        binary_gmm_program(observation=1.0),
        AnalysisOptions(splits_per_dimension=scaled(160, 24), analyzers=("box",)),
    )
    histogram = bench_once(model.histogram, -3.0, 3.0, 12)
    samples = _is_reference(model, rng)
    is_report = histogram.validate_samples(samples, tolerance=0.02)

    # A mode-collapsed HMC chain (started in the positive mode, small steps).
    result = hmc(
        lambda x: binary_gmm_log_density(float(x[0]), observation=1.0),
        initial=[1.0],
        num_samples=scaled(1_500, 300),
        rng=rng,
        step_size=0.05,
        leapfrog_steps=10,
    )
    hmc_samples = result.first_coordinate()
    hmc_report = histogram.validate_samples(hmc_samples, tolerance=0.02)
    _summarise(
        "fig5c_binary_gmm",
        histogram,
        [
            f"IS consistent: {is_report.consistent}",
            f"mode-collapsed HMC consistent: {hmc_report.consistent} "
            f"({hmc_report.violations} bucket violations)",
        ],
    )
    if not TINY:
        assert is_report.consistent
        # Fig. 5c shape: MCMC finds only one mode, which the guaranteed bounds expose.
        assert not hmc_report.consistent


def test_fig5d_neals_funnel(bench_once, rng):
    model = Model(neals_funnel_program(), _BOX_OPTIONS)
    histogram = bench_once(model.histogram, -9.0, 9.0, 12)
    samples = _is_reference(model, rng)
    report = histogram.validate_samples(samples, tolerance=0.02)
    _summarise(
        "fig5d_neals_funnel", histogram, [f"IS consistent: {report.consistent}"]
    )
    if not TINY:
        assert report.consistent
    covered_lower, covered_upper = histogram.covered_mass_bounds()
    assert covered_upper >= 0.95
