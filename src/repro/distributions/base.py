"""Abstract interface for probability distributions.

Distributions serve three purposes in the reproduction:

* **Concrete semantics / stochastic inference** — drawing samples and
  evaluating densities (``pdf``/``log_pdf``/``cdf``/``quantile``).
* **Guaranteed-bounds analysis** — sound interval bounds on the density over a
  box (``pdf_interval``) and the exact probability mass of an interval
  (``measure``), which the box-splitting path analyser uses as the volume of a
  non-uniform sample split (Appendix E.1).
* **Primitive registration** — every distribution contributes a
  ``<name>_pdf`` primitive to the global registry so that ``observe``
  statements desugar to ordinary ``score`` of a primitive application.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from ..intervals import Interval

__all__ = ["Distribution", "ContinuousDistribution", "DiscreteDistribution"]


class Distribution(abc.ABC):
    """Base class for all distributions."""

    #: short identifier used for primitive names and pretty printing
    name: str = "distribution"

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one sample."""

    @abc.abstractmethod
    def pdf(self, value: float) -> float:
        """Density (or mass) at ``value``."""

    def log_pdf(self, value: float) -> float:
        density = self.pdf(value)
        return math.log(density) if density > 0.0 else -math.inf

    @abc.abstractmethod
    def cdf(self, value: float) -> float:
        """Cumulative distribution function."""

    @abc.abstractmethod
    def support(self) -> Interval:
        """Smallest interval containing the support."""

    # ------------------------------------------------------------------
    # Interval reasoning
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf_interval(self, values: Interval) -> Interval:
        """Sound bounds on ``{pdf(x) : x in values}``."""

    def measure(self, values: Interval) -> float:
        """Exact probability of the value landing inside ``values``."""
        if values.is_empty:
            return 0.0
        return max(0.0, self.cdf(values.hi) - self.cdf(values.lo))

    # ------------------------------------------------------------------
    def params(self) -> tuple[float, ...]:
        """Parameters used for equality and hashing; override as needed."""
        return ()

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.params() == other.params()  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.params()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{p:g}" for p in self.params())
        return f"{type(self).__name__}({args})"


class ContinuousDistribution(Distribution):
    """A distribution with a density w.r.t. Lebesgue measure."""

    @abc.abstractmethod
    def quantile(self, probability: float) -> float:
        """Inverse CDF; used to express non-uniform samples via uniforms."""

    def quantile_interval(self, probabilities: Interval) -> Interval:
        """Monotone interval lifting of the quantile function."""
        clipped = probabilities.meet(Interval(0.0, 1.0))
        if clipped.is_empty:
            return Interval.empty()
        return clipped.monotone_image(self.quantile, increasing=True)


class DiscreteDistribution(Distribution):
    """A distribution with countable support; ``pdf`` is the probability mass."""

    @abc.abstractmethod
    def support_values(self) -> Sequence[float]:
        """The support as an explicit (finite) sequence when available."""

    def quantile(self, probability: float) -> float:
        """Generalised inverse CDF (smallest support value with CDF ≥ p).

        Needed so that native discrete draws fit the uniform trace semantics:
        a trace entry ``u`` is mapped to ``quantile(u)`` exactly like for
        continuous distributions.
        """
        values = sorted(self.support_values())
        if not values:
            raise ValueError("cannot take the quantile of an empty support")
        cumulative = 0.0
        for value in values:
            cumulative += self.pdf(value)
            if probability <= cumulative + 1e-15:
                return value
        return values[-1]

    def measure(self, values: Interval) -> float:
        if values.is_empty:
            return 0.0
        return sum(self.pdf(v) for v in self.support_values() if v in values)

    def pdf_interval(self, values: Interval) -> Interval:
        masses = [self.pdf(v) for v in self.support_values() if v in values]
        if not masses:
            return Interval.point(0.0)
        # Values strictly between support points have mass 0.
        return Interval(0.0, max(masses)) if values.width > 0 else Interval.hull_of(masses)
