"""Ablation: the optimised linear semantics vs plain box splitting (Section 6.4).

The paper claims that, when applicable, directly splitting the linear score
expressions (and computing exact polytope volumes) is superior to the standard
interval trace semantics that splits every sample variable.  This benchmark
quantifies both tightness and running time on the simple observation model and
on a pedestrian prefix.  Both analyzer configurations share one ``Model`` per
program, so the symbolic execution is compiled once and only the path analysis
differs between the compared runs.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import AnalysisOptions, AnalysisReport, Model
from repro.intervals import Interval
from repro.lang import builder as b
from repro.models import pedestrian_program

from bench_utils import emit, scaled

_rows: list[str] = []


def _observe_model():
    return b.let(
        "x",
        b.mul(3.0, b.sample()),
        b.seq(b.observe_normal(1.1, 0.25, b.var("x")), b.var("x")),
    )


#: shared across the linear/box parametrisations so both hit one compilation
_OBSERVE = Model(_observe_model())


def _run(model, target, options):
    # Compile outside the timed region so both analyzer configurations time
    # pure path analysis — otherwise whichever runs first would also pay the
    # one-time symbolic-execution cost and the comparison would be skewed.
    model.compile(options)
    report = AnalysisReport()
    start = time.perf_counter()
    bounds = model.probability(target, options, report)
    seconds = time.perf_counter() - start
    return bounds, seconds, report


@pytest.mark.parametrize("use_linear", [True, False], ids=["linear", "box"])
def test_ablation_observe_model(use_linear, bench_once):
    target = Interval(0.0, 1.0)
    options = AnalysisOptions(
        analyzers=("linear", "box") if use_linear else ("box",),
        score_splits=scaled(64, 8),
        splits_per_dimension=scaled(64, 8),
    )
    bounds, seconds, report = bench_once(_run, _OBSERVE, target, options)
    _rows.append(
        f"observe-model   {'linear' if use_linear else 'box   '}  "
        f"bounds=[{bounds.lower:.4f}, {bounds.upper:.4f}] width={bounds.width:.4f} "
        f"time={seconds:.2f}s paths(linear/box)="
        f"{report.analyzer_paths.get('linear', 0)}/{report.analyzer_paths.get('box', 0)}"
    )
    emit("ablation_linear_vs_box", _rows)
    assert bounds.lower <= bounds.upper


def test_ablation_pedestrian_depth3(bench_once):
    model = Model(pedestrian_program())
    target = Interval(0.0, 1.0)
    results = {}
    for use_linear in (True, False):
        options = AnalysisOptions(
            max_fixpoint_depth=3,
            analyzers=("linear", "box") if use_linear else ("box",),
            score_splits=scaled(16, 6),
            splits_per_dimension=scaled(6, 3),
            max_boxes_per_path=scaled(4_000, 800),
        )
        if use_linear:
            bounds, seconds, report = bench_once(_run, model, target, options)
        else:
            bounds, seconds, report = _run(model, target, options)
        results[use_linear] = (bounds, seconds)
        _rows.append(
            f"pedestrian(d=3) {'linear' if use_linear else 'box   '}  "
            f"bounds=[{bounds.lower:.4f}, {bounds.upper:.4f}] width={bounds.width:.4f} "
            f"time={seconds:.2f}s"
        )
    emit("ablation_linear_vs_box", _rows)
    # Both configurations were served from a single symbolic execution.
    assert model.compile_count == 1

    linear_bounds, _ = results[True]
    box_bounds, _ = results[False]
    # Section 6.4 claim: the linear semantics is at least as tight as box splitting here.
    assert linear_bounds.width <= box_bounds.width + 1e-9
