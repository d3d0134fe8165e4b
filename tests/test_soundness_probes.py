"""Known unsound bounds, pinned so that the fixes must flip them.

Each probe compares a bound against an exact value (a ``Fraction`` of the
floats involved) and, today, the bound excludes it.  They are strict
``xfail``s: the change that makes a probe's bound contain its exact value
turns the ``xfail`` into an ``XPASS`` failure, and must then drop the
marker.  ROADMAP.md items 1 (certified volume enclosures) and 2 (outward
rounding of weights) describe the fixes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro import AnalysisOptions, Interval, Model
from repro.polytope import Polytope


def _contains(bounds: Interval, exact: Fraction) -> bool:
    return Fraction(bounds.lo) <= exact <= Fraction(bounds.hi)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="VOLUME_SLACK pads relative to the parent's volume, not the vertex rounding",
)
@pytest.mark.parametrize("width", [2e-9, 1e-8, 1e-6, 1e-5])
def test_thin_strip_parent_contains_its_exact_area(width):
    # ``|x − y| ≤ w`` in the unit square, strip rows first: an uncut parent.
    a = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([width, width, 1.0, 0.0, 1.0, 0.0])
    exact = 2 * Fraction(width) - Fraction(width) ** 2
    assert _contains(Polytope(a, b).volume_bounds(), exact)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="weights are round-to-nearest points"
)
def test_constant_score_contains_the_exact_product():
    model = Model.parse(
        "(let x (sample) (let _ (score 0.1) x))",
        AnalysisOptions(workers=1, executor="serial", refine="off"),
    )
    bounds = model.bound(Interval(-1.0, 0.3))
    assert _contains(Interval(bounds.lower, bounds.upper), Fraction(0.1) * Fraction(0.3))
