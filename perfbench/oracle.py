"""Exact oracles: affine sums of uniforms with rational closed-form answers.

A query ``Pr[a_1·U_1 + ... + a_n·U_n <= t]`` with ``U_i ~ U(0, 1)`` i.i.d.
has an exact rational answer whenever the ``a_i`` and ``t`` are rational.
Flipping every negative coefficient (``a·U = a + |a|·(1 - U)`` and
``1 - U ~ U(0, 1)``) leaves a sum with positive coefficients, whose CDF is
the inclusion–exclusion formula for the volume of a simplex cut by the unit
cube::

    Pr[Σ a_i U_i <= t] = Σ_{S ⊆ [n]} (-1)^|S| (t - Σ_{i∈S} a_i)_+^n / (n! Π a_i)

The formula is evaluated in :class:`fractions.Fraction`, so the answer is
exact and a bound is checked against it without any rounding.  Every
coefficient and threshold the generator draws is dyadic (``k / 2^m``), so
it is exactly representable as a float and crosses the program text,
the parser and the wire unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

#: Dimensions the generated suite cycles through, one program of each in
#: turn, so every seed tests the same mix of 1- to 4-dimensional polytopes.
DIMENSIONS = (1, 2, 3, 4)


def affine_cdf(coefficients: Sequence, threshold) -> Fraction:
    """Exact ``Pr[Σ a_i·U_i <= t]`` for i.i.d. ``U_i ~ U(0, 1)``."""
    coefficients = [Fraction(a) for a in coefficients]
    t = Fraction(threshold)
    if any(a == 0 for a in coefficients):
        raise ValueError("coefficients must be non-zero")
    positive = []
    for a in coefficients:
        if a < 0:
            t -= a
            positive.append(-a)
        else:
            positive.append(a)
    n = len(positive)
    total = Fraction(0)
    for size in range(n + 1):
        for subset in combinations(positive, size):
            rest = t - sum(subset, Fraction(0))
            if rest > 0:
                total += (-1) ** size * rest**n
    probability = total / (math.factorial(n) * math.prod(positive))
    return min(max(probability, Fraction(0)), Fraction(1))


def affine_source(coefficients: Sequence[float]) -> str:
    """SPCF source text of ``a_1·U_1 + ... + a_n·U_n``."""
    terms = [f"(* {float(a)!r} (sample))" for a in coefficients]
    source = terms[-1]
    for term in reversed(terms[:-1]):
        source = f"(+ {term} {source})"
    return source


@dataclass(frozen=True)
class OracleCase:
    """One affine-sum program and the thresholds it is queried at."""

    coefficients: tuple[float, ...]
    thresholds: tuple[float, ...]

    @property
    def source(self) -> str:
        return affine_source(self.coefficients)

    @property
    def floor(self) -> float:
        """A value strictly below the sum's support (the targets' left end)."""
        return sum(min(a, 0.0) for a in self.coefficients) - 1.0

    def targets(self) -> list[tuple[float, float]]:
        """``(floor, t]`` for every threshold: the events ``Σ a_i U_i <= t``."""
        return [(self.floor, t) for t in self.thresholds]

    def exact(self) -> list[Fraction]:
        return [affine_cdf(self.coefficients, t) for t in self.thresholds]


#: Closed forms every suite starts with: ``3·U <= 1`` (exactly 1/3, not a
#: float) and the Irwin–Hall CDFs ``t²/2`` and ``t³/6`` at ``t = 1/2``.
PINNED = (
    OracleCase((3.0,), (1.0,)),
    OracleCase((1.0, 1.0), (0.5,)),
    OracleCase((1.0, 1.0, 1.0), (0.5,)),
)


def oracle_suite(seed: int, programs: int, thresholds: int) -> list[OracleCase]:
    """:data:`PINNED`, then ``programs`` seeded affine sums.

    The seeded programs cycle through :data:`DIMENSIONS`.  Coefficients are
    ``±k/8`` with ``k`` in ``1..16``; each program gets ``thresholds``
    distinct thresholds on the ``1/64`` grid strictly inside the sum's
    support.
    """
    rng = random.Random(f"oracle:{seed}")
    cases = list(PINNED)
    for index in range(programs):
        n = DIMENSIONS[index % len(DIMENSIONS)]
        coefficients = tuple(rng.choice((-1, 1)) * rng.randint(1, 16) / 8 for _ in range(n))
        low = sum(min(a, 0.0) for a in coefficients)
        span = sum(abs(a) for a in coefficients)
        steps = sorted(rng.sample(range(1, 64), thresholds))
        cases.append(OracleCase(coefficients, tuple(low + k / 64 * span for k in steps)))
    return cases


def contains(lower: float, upper: float, exact: Fraction) -> bool:
    """Whether ``[lower, upper]`` contains ``exact``, decided in rationals."""
    return Fraction(lower) <= exact <= Fraction(upper)


def near(lower: float, upper: float, exact: Fraction, slack: float) -> bool:
    """Whether ``exact`` lies within ``slack`` of ``[lower, upper]``.

    The correctness check of a run: it catches a wrong answer, while the
    exact containment test (:func:`contains`) is measured, not enforced.
    """
    return Fraction(lower) - Fraction(slack) <= exact <= Fraction(upper) + Fraction(slack)
