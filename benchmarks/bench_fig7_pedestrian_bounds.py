"""Figure 7: guaranteed bounds for the pedestrian example vs sampler output.

The flagship experiment: GuBPI-style bounds on the posterior of the
pedestrian's starting point, checked against importance sampling (which should
be consistent) and against a fixed-dimension HMC run on the truncated model
(which should violate the bounds).  The paper runs this at depth/splits that
take ~1.5 hours; the harness uses a reduced depth, which loosens the bounds
but preserves the qualitative verdict.  Both samplers run through the unified
``Model.sample`` interface on the bounded variant of the model.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import AnalysisOptions, Model
from repro.models import pedestrian_bounded_program, pedestrian_program

from bench_utils import TINY, emit, scaled

_DEPTH = scaled(5, 3)
_BUCKETS = scaled(6, 4)
_IS_SAMPLES = scaled(6_000, 1_000)


def test_fig7_pedestrian_bounds(bench_once, rng):
    model = Model(
        pedestrian_program(),
        AnalysisOptions(max_fixpoint_depth=_DEPTH, score_splits=scaled(16, 6)),
    )
    histogram = bench_once(model.histogram, 0.0, 3.0, _BUCKETS)

    sampler_model = Model(pedestrian_bounded_program())
    is_result = sampler_model.sample(_IS_SAMPLES, method="importance", rng=rng)
    is_samples = is_result.resample(_IS_SAMPLES, rng)
    is_report = histogram.validate_samples(is_samples, tolerance=0.03)

    _, hmc_values = sampler_model.sample(
        scaled(150, 60),
        method="hmc",
        rng=rng,
        trace_dimension=5,
        step_size=0.08,
        leapfrog_steps=15,
        burn_in=scaled(50, 15),
    )
    hmc_values = hmc_values[~np.isnan(hmc_values)]
    hmc_report = histogram.validate_samples(hmc_values, tolerance=0.0)

    # Fig. 1 ingredient: how different are the two sampler histograms?
    edges = histogram.edges
    is_histogram, _ = np.histogram(is_samples, bins=edges)
    hmc_histogram, _ = np.histogram(hmc_values, bins=edges)
    is_frequencies = is_histogram / max(1, is_histogram.sum())
    hmc_frequencies = hmc_histogram / max(1, hmc_histogram.sum())
    tv_distance = 0.5 * float(np.abs(is_frequencies - hmc_frequencies).sum())

    lines = [f"pedestrian guaranteed bounds (fixpoint depth {_DEPTH}, {_BUCKETS} buckets)"]
    lines.extend(histogram.summary_lines())
    lines.append(f"importance sampling consistent with the bounds: {is_report.consistent}")
    lines.append(
        f"truncated HMC consistent with the bounds: {hmc_report.consistent} "
        f"({hmc_report.violations} bucket violations at this reduced depth)"
    )
    lines.append(f"total-variation distance between the IS and HMC histograms: {tv_distance:.3f}")
    lines.append(
        "paper: at full precision (~84 min) the bounds are tight enough to rule the HMC samples "
        "out definitively; at this reduced depth the harness asserts that IS is accepted and "
        "that the two samplers disagree strongly"
    )
    emit("fig7_pedestrian_bounds", lines)

    # Shape assertions (Fig. 7 at reduced scale): sound bounds that accept IS,
    # and a fixed-dimension HMC run that is either flagged outright by the
    # (strict, zero-tolerance) lower bounds or at least disagrees strongly
    # with IS — the full-precision bounds adjudicate this definitively in the paper.
    assert histogram.z_lower > 0.0
    if not TINY:
        assert is_report.consistent
        assert (not hmc_report.consistent) or tv_distance > 0.1
