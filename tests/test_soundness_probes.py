"""Known unsound bounds, pinned so that the fixes must flip them.

Each probe compares a bound against an exact value (a ``Fraction`` of the
floats involved) and, today, the bound excludes it.  They are strict
``xfail``s: the change that makes a probe's bound contain its exact value
turns the ``xfail`` into an ``XPASS`` failure, and must then drop the
marker.  ROADMAP.md items 1 (certified volume enclosures) and 2 (outward
rounding of weights, of the variable reduction and of ``exp``) describe the
fixes.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro import AnalysisOptions, Interval, Model
from repro.polytope import Polytope
from vertex_enum import exact_volume

_SERIAL = AnalysisOptions(workers=1, executor="serial", refine="off")


def _contains(bounds: Interval, exact: Fraction) -> bool:
    return Fraction(bounds.lo) <= exact <= Fraction(bounds.hi)


def _bound(source: str, target: Interval) -> Interval:
    bounds = Model.parse(source, _SERIAL).bound(target)
    return Interval(bounds.lower, bounds.upper)


def _strip_source(width: float, then: str = "0") -> str:
    """``x, y ~ U(0, 1)``; returns ``then`` on the strip ``|x − y| ≤ w``, else 1."""
    return (
        f"(let x (sample) (let y (sample) (if (- (- x y) {width!r})"
        f" (if (- (- y x) {width!r}) {then} 1) 1)))"
    )


def _oblique_strip(width: float) -> tuple[str, Fraction]:
    """The strip cut once more by ``x + 0.5·y ≤ 1.2``, and its exact area."""
    source = _strip_source(width, then="(if (- (+ x (* 0.5 y)) 1.2) 0 1)")
    rows = [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.5], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    region = Polytope(np.array(rows), np.array([width, width, 1.2, 1.0, 0.0, 1.0, 0.0]))
    return source, exact_volume(region)


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="VOLUME_SLACK pads relative to the parent's volume, not the vertex rounding",
)
@pytest.mark.parametrize("width", [2e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_oblique_cut_strip_contains_its_exact_area(width):
    # The oblique row after the strip leaves no slab to read off the path
    # polytope, so the thin polytope is measured as its own uncut parent.
    source, exact = _oblique_strip(width)
    assert _contains(_bound(source, Interval(-1.0, 0.5)), exact)


def test_wider_oblique_cut_strip_contains_its_exact_area():
    source, exact = _oblique_strip(1e-4)
    assert _contains(_bound(source, Interval(-1.0, 0.5)), exact)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a flat path polytope is pruned to [0, 0] however much area it has",
)
@pytest.mark.parametrize("width", [1e-10, 1e-9])
def test_flat_strip_keeps_its_area(width):
    exact = 2 * Fraction(width) - Fraction(width) ** 2
    assert _contains(_bound(_strip_source(width), Interval(-1.0, 0.5)), exact)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the variable reduction divides and measures round-to-nearest",
)
@pytest.mark.parametrize(
    "condition, exact",
    [
        ("(- (* 3 x) 1)", Fraction(1, 3)),
        ("(- (* 0.7 x) 0.1)", Fraction(0.1) / Fraction(0.7)),
    ],
    ids=["3x", "0.7x"],
)
def test_reduced_variable_contains_its_exact_mass(condition, exact):
    # ``x`` occurs only in a one-variable condition, so it is folded into a
    # factor instead of being measured as a segment.
    source = f"(let x (sample) (if {condition} 0 1))"
    assert _contains(_bound(source, Interval(-1.0, 0.5)), exact)


#: ``N(1.1; 0.5, 0.25) · 0.3`` at the floats' exact values, to 60 digits:
#:   python -c "import mpmath; mpmath.mp.dps = 70; print(mpmath.nstr(
#:   mpmath.npdf(mpmath.mpf(1.1), 0.5, 0.25) * mpmath.mpf(0.3), 60))"
_OBSERVE_TIMES_MASS = Fraction("0.0268734363538114522986867363732497481172288966088039293182155")


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="weights are round-to-nearest points"
)
def test_constant_observe_contains_the_exact_product():
    source = "(let x (sample) (let _ (observe normal 0.5 0.25 1.1) x))"
    assert _contains(_bound(source, Interval(-1.0, 0.3)), _OBSERVE_TIMES_MASS)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exp maps an overflowing lower endpoint to +inf",
)
def test_overflowing_exp_score_keeps_a_finite_lower_bound():
    # The exact value (e^1000 − 1)/1000 is finite but above every finite
    # float, so a bound contains it iff its lower end is finite and its
    # upper end is +inf.  exp([900, 1000]) comes out as [inf, inf] today.
    source = "(let x (sample uniform 0 1) (let u (score (exp (* 1000 x))) x))"
    bounds = _bound(source, Interval(0.0, 1.0))
    assert bounds.hi == math.inf
    assert bounds.lo <= sys.float_info.max
