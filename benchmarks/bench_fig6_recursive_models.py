"""Figure 6: guaranteed bounds for recursive models.

Exact solvers cannot handle these unbounded-recursion programs (PSI unrolls
them to a fixed depth, changing the posterior — Figs. 6a–6c); GuBPI analyses
them directly.  For every model the harness computes histogram bounds at a
reduced fixpoint depth, checks them against importance sampling, and (for the
discrete geometric example) shows how depth-truncated exact inference differs
from the unbounded program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import AnalysisOptions, Model
from repro.intervals import Interval
from repro.models import recursive_suite

from bench_utils import TINY, emit, scaled

#: per-model (fixpoint depth, score splits, box splits) — reduced for bench runtime
_BENCH_SETTINGS = {
    "cav-example-7": (10, 8, 6),
    "cav-example-5": (6, 12, 6),
    "add-uniform-with-counter": (6, 8, 6),
    "random-box-walk": (5, 8, 6),
    "growing-walk": (5, 12, 6),
    "param-estimation-recursive": (6, 12, 6),
}

if TINY:
    # Seconds-scale smoke settings: shallow fixpoints, coarse splits.
    _BENCH_SETTINGS = {name: (min(depth, 4), 4, 3) for name, (depth, _, _) in _BENCH_SETTINGS.items()}

SUITE = recursive_suite()


@pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.name)
def test_fig6_model(entry, bench_once, rng):
    depth, score_splits, box_splits = _BENCH_SETTINGS[entry.name]
    options = AnalysisOptions(
        max_fixpoint_depth=depth,
        score_splits=score_splits,
        splits_per_dimension=box_splits,
        max_boxes_per_path=4_000,
    )
    model = Model(entry.program, options)
    buckets = min(entry.buckets, scaled(8, 4))
    histogram = bench_once(
        model.histogram,
        entry.histogram_low,
        entry.histogram_high,
        buckets,
    )

    is_result = model.sample(scaled(4_000, 800), method="importance", rng=rng)
    samples = is_result.resample(scaled(4_000, 800), rng)
    report = histogram.validate_samples(samples, tolerance=0.04)

    lines = [f"{entry.name}: {entry.description} (fixpoint depth {depth})"]
    lines.extend(histogram.summary_lines())
    lines.append(f"importance-sampling histogram consistent with the bounds: {report.consistent}")
    lines.append(f"paper reports a GuBPI running time of {entry.paper_seconds:.0f}s on this model")
    emit(f"fig6_{entry.name.replace('-', '_')}", lines)

    # Shape assertions: sound, non-trivial bounds on an unbounded-recursion program.
    assert histogram.z_lower > 0.0
    assert np.isfinite(histogram.z_upper)
    if not TINY:
        assert report.consistent


def test_fig6a_truncated_exact_inference_differs(bench_once):
    """Fig. 6a/6c: unrolling the loop to a fixed depth visibly changes the result."""
    from repro.models import cav_example_7

    model = Model(cav_example_7(), AnalysisOptions(max_fixpoint_depth=scaled(12, 8)))
    truncated = bench_once(model.exact, 6, "truncate")
    # The unbounded program assigns P(count = 0) = 0.2 exactly; the truncated
    # enumeration loses the tail mass and renormalises it away.
    truncated_p0 = truncated.probability(0.0)
    missing_mass = 1.0 - truncated.normalising_constant

    bounds = model.probability(Interval(-0.5, 0.5))
    lines = [
        f"truncated exact inference (depth 6): P(count=0) = {truncated_p0:.4f}, "
        f"missing tail mass = {missing_mass:.4f}",
        f"GuBPI bounds on the unbounded program: [{bounds.lower:.4f}, {bounds.upper:.4f}] (truth 0.2)",
    ]
    emit("fig6_truncation_effect", lines)

    assert missing_mass > 0.1
    assert truncated_p0 != pytest.approx(0.2, abs=1e-3)
    assert bounds.lower <= 0.2 <= bounds.upper
    if not TINY:
        assert bounds.width < 0.2
