"""``exp``/``log`` scores under the vectorised sweeps.

Neither primitive has an array lifting: inside a sweep both take their
scalar (libm) interval lifting cell by cell, so the sweeps reproduce the
per-cell loops' endpoints.  Pinned here end to end on a model whose scores
exercise both primitives through both analysers.
"""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisOptions, Model, box_analyzer, linear_analyzer
from repro.analysis.vectorize import ScalarFallback
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

    def test_knob_off_is_bit_identical_to_scalar(self, monkeypatch):
        # The sweeps against the per-cell loops they fall back to: the linear
        # factor sweep skipped, the box sweep abandoned on every path.  The
        # patches reach only this process, hence the serial engine.
        serial = AnalysisOptions(workers=1, executor="serial")
        linear = Model(_exp_score_model(), serial).bounds(self._TARGETS)
        box_options = serial.with_updates(analyzers=("box",))
        box = Model(_exp_score_model(), box_options).bounds(self._TARGETS)
        abandoned = []

        def abandon(*args):
            abandoned.append(args)
            raise ScalarFallback

        monkeypatch.setattr(box_analyzer, "_boxes_sweep", abandon)
        monkeypatch.setattr(linear_analyzer, "_vectorized_factors", lambda *args: None)
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
        assert abandoned
