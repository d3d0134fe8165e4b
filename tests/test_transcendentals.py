"""``exp``/``log`` scores under the vectorised sweeps.

Neither primitive has an array lifting: inside a sweep both take their
scalar (libm) interval lifting cell by cell, so the sweeps reproduce the
per-cell routes' endpoints.  Pinned here end to end on a model whose scores
exercise both primitives through both analysers.
"""

from __future__ import annotations

import pytest

from helpers import _analyze_cells
from repro.analysis import AnalysisOptions, Model, box_analyzer, linear_analyzer
from repro.intervals import Interval
from repro.lang import builder as b


def _exp_score_model():
    """Two samples under smooth exp/log scores — exercises both analysers."""
    return b.let(
        "x",
        b.sample(),
        b.let(
            "y",
            b.sample(),
            b.seq(
                b.score(b.exp(b.neg(b.mul(2.0, b.var("x"))))),
                b.seq(
                    b.score(b.log(b.add(1.5, b.var("y")))),
                    b.add(b.var("x"), b.var("y")),
                ),
            ),
        ),
    )


class TestEndToEnd:
    _TARGETS = [Interval(0.0, 1.0), Interval.reals()]

    def test_sweeps_match_the_per_cell_oracles(self, monkeypatch):
        # The sweeps against per-cell routes that compute the same floats:
        # every linear atom grid weighed by the scalar interval evaluator
        # (``_scalar_factors``), every box path run through the per-cell
        # loop of ``helpers``.  The patches reach only this process, hence
        # the serial engine.
        serial = AnalysisOptions(workers=1, executor="serial")
        linear = Model(_exp_score_model(), serial).bounds(self._TARGETS)
        box_options = serial.with_updates(analyzers=("box",))
        box = Model(_exp_score_model(), box_options).bounds(self._TARGETS)
        routed = {"linear": 0, "box": 0}

        def scalar_factors(atom_ranges, templates):
            routed["linear"] += 1
            return linear_analyzer._scalar_factors(atom_ranges, templates)

        def per_cell_boxes(table, index, targets, options):
            routed["box"] += 1
            return _analyze_cells(table.decode_path(index), targets, options)

        # The factor sweep's program slot carries the templates themselves,
        # so the patched sweep can hand them to the scalar evaluator.
        monkeypatch.setattr(
            linear_analyzer.GeometryCache, "template_program", lambda self, templates: templates
        )
        monkeypatch.setattr(linear_analyzer, "_vectorized_factors", scalar_factors)
        monkeypatch.setattr(box_analyzer, "analyze_table_boxes", per_cell_boxes)
        for a, b_ in zip(Model(_exp_score_model(), serial).bounds(self._TARGETS), linear):
            assert a.lower == b_.lower
            assert a.upper == b_.upper
        # Per-cell endpoints agree bit for bit, but the box sweep sums its
        # cells with NumPy's pairwise sum and the loop one by one, so on
        # larger grids (refine="gap" doubles them) the sums may differ in
        # the last ulps.
        for a, b_ in zip(Model(_exp_score_model(), box_options).bounds(self._TARGETS), box):
            assert a.lower == pytest.approx(b_.lower, rel=1e-12, abs=0.0)
            assert a.upper == pytest.approx(b_.upper, rel=1e-12, abs=0.0)
        assert routed["linear"] and routed["box"]
