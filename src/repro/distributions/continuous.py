"""Continuous distributions used by the benchmark programs.

Every distribution provides exact ``cdf``/``quantile`` functions (so that the
box-splitting analyser can compute exact probability masses of sub-intervals)
and a sound interval lifting of its density.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy import stats

from ..intervals import Interval
from .base import ContinuousDistribution

__all__ = [
    "Uniform",
    "Normal",
    "Beta",
    "Exponential",
    "Gamma",
    "Cauchy",
    "unimodal_pdf_bounds",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: The largest float whose square is finite: Python's float ``**`` raises
#: ``OverflowError`` above it.
_MAX_SQUARABLE = math.sqrt(sys.float_info.max)


def unimodal_pdf_bounds(pdf, mode: float, values: Interval, support: Interval) -> Interval:
    """Bounds on a unimodal density over ``values``.

    The density is assumed to increase up to ``mode`` and decrease afterwards,
    which covers every unimodal distribution in this module.  The maximum over
    the interval is attained at the mode when the mode lies inside the
    interval and at the nearest endpoint otherwise; the minimum is attained at
    the endpoint farthest from the mode.
    """
    clipped = values.meet(support)
    if clipped.is_empty:
        return Interval.point(0.0)
    lo, hi = clipped.lo, clipped.hi
    pdf_lo = pdf(lo) if math.isfinite(lo) else 0.0
    pdf_hi = pdf(hi) if math.isfinite(hi) else 0.0
    if lo <= mode <= hi:
        upper = pdf(mode)
    elif hi < mode:
        upper = pdf_hi
    else:
        upper = pdf_lo
    lower = min(pdf_lo, pdf_hi)
    if not values.contains_interval(clipped.meet(values)) or not support.contains_interval(values):
        # Part of the queried interval lies outside the support where the
        # density is zero.
        lower = 0.0
    return Interval(max(0.0, lower), max(upper, lower))


class Uniform(ContinuousDistribution):
    """Uniform distribution on ``[low, high]``."""

    name = "uniform"

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if not high > low:
            raise ValueError("Uniform requires high > low")
        self.low = float(low)
        self.high = float(high)
        self._density = 1.0 / (self.high - self.low)

    def params(self) -> tuple[float, ...]:
        return (self.low, self.high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def pdf(self, value: float) -> float:
        return self._density if self.low <= value <= self.high else 0.0

    def cdf(self, value: float) -> float:
        if value <= self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        return (value - self.low) * self._density

    def quantile(self, probability: float) -> float:
        probability = min(max(probability, 0.0), 1.0)
        return self.low + probability * (self.high - self.low)

    def support(self) -> Interval:
        return Interval(self.low, self.high)

    def pdf_interval(self, values: Interval) -> Interval:
        clipped = values.meet(self.support())
        if clipped.is_empty:
            return Interval.point(0.0)
        lower = self._density if self.support().contains_interval(values) else 0.0
        return Interval(lower, self._density)


class Normal(ContinuousDistribution):
    """Gaussian distribution ``Normal(mean, std)``."""

    name = "normal"

    def __init__(self, mean: float = 0.0, std: float = 1.0) -> None:
        if std <= 0:
            raise ValueError("Normal requires std > 0")
        self.mean = float(mean)
        self.std = float(std)

    def params(self) -> tuple[float, ...]:
        return (self.mean, self.std)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(self.mean, self.std))

    def pdf(self, value: float) -> float:
        if not math.isfinite(value):
            return 0.0
        z = (value - self.mean) / self.std
        return math.exp(-0.5 * z * z) / (self.std * _SQRT_2PI)

    def log_pdf(self, value: float) -> float:
        z = (value - self.mean) / self.std
        return -0.5 * z * z - math.log(self.std * _SQRT_2PI)

    def cdf(self, value: float) -> float:
        return 0.5 * math.erfc(-(value - self.mean) / (self.std * math.sqrt(2.0)))

    def quantile(self, probability: float) -> float:
        return float(stats.norm.ppf(probability, loc=self.mean, scale=self.std))

    def support(self) -> Interval:
        return Interval(-math.inf, math.inf)

    def pdf_interval(self, values: Interval) -> Interval:
        return unimodal_pdf_bounds(self.pdf, self.mean, values, self.support())

    @staticmethod
    def pdf_interval_params(
        mean: Interval, std: Interval, values: Interval
    ) -> Interval:
        """Bounds on ``normal_pdf(mean, std, x)`` with interval parameters.

        Used when the observation's mean (or the observed value itself) is an
        interval produced by ``approxFix``.  The bound is derived from the
        distance ``d = |x - mean|``: for fixed ``d`` the density is unimodal
        in ``std`` with maximum at ``std = d``.
        """
        if values.is_empty or mean.is_empty or std.is_empty:
            return Interval.point(0.0)
        std = std.meet(Interval(1e-300, math.inf))
        if std.is_empty:
            return Interval(0.0, math.inf)
        distance = (values - mean).abs()
        d_min, d_max = distance.lo, distance.hi

        def density(d: float, sigma: float) -> float:
            if not math.isfinite(d) or d / sigma > _MAX_SQUARABLE:
                # Beyond the largest squarable ratio the density is far below
                # the smallest subnormal (and ``**`` would raise).
                return 0.0
            return math.exp(-0.5 * (d / sigma) ** 2) / (sigma * _SQRT_2PI)

        # Upper bound: smallest distance, best sigma.
        candidates_hi = [density(d_min, std.lo), density(d_min, std.hi)]
        if d_min > 0 and d_min in std:
            candidates_hi.append(density(d_min, d_min))
        if d_min == 0.0:
            candidates_hi.append(1.0 / (std.lo * _SQRT_2PI))
        upper = max(candidates_hi)
        # Lower bound: largest distance, worst sigma.
        candidates_lo = [density(d_max, std.lo), density(d_max, std.hi)]
        lower = min(candidates_lo)
        return Interval(max(0.0, lower), upper)


class Beta(ContinuousDistribution):
    """Beta distribution on ``[0, 1]``."""

    name = "beta"

    def __init__(self, alpha: float, beta: float) -> None:
        if alpha <= 0 or beta <= 0:
            raise ValueError("Beta requires positive shape parameters")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._log_norm = (
            math.lgamma(self.alpha) + math.lgamma(self.beta) - math.lgamma(self.alpha + self.beta)
        )

    def params(self) -> tuple[float, ...]:
        return (self.alpha, self.beta)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.beta(self.alpha, self.beta))

    def pdf(self, value: float) -> float:
        if value < 0.0 or value > 1.0 or not math.isfinite(value):
            return 0.0
        if value == 0.0:
            if self.alpha < 1.0:
                return math.inf
            if self.alpha > 1.0:
                return 0.0
            return math.exp(-self._log_norm)  # alpha == 1: the density at 0 is 1/B(1, beta)
        if value == 1.0:
            if self.beta < 1.0:
                return math.inf
            if self.beta > 1.0:
                return 0.0
            return math.exp(-self._log_norm)
        return math.exp(self.log_pdf(value))

    def log_pdf(self, value: float) -> float:
        if value <= 0.0 or value >= 1.0:
            density = self.pdf(value)
            if density == 0.0:
                return -math.inf
            if math.isinf(density):
                return math.inf
            return math.log(density)
        return (
            (self.alpha - 1.0) * math.log(value)
            + (self.beta - 1.0) * math.log1p(-value)
            - self._log_norm
        )

    def cdf(self, value: float) -> float:
        return float(stats.beta.cdf(value, self.alpha, self.beta))

    def quantile(self, probability: float) -> float:
        return float(stats.beta.ppf(probability, self.alpha, self.beta))

    def support(self) -> Interval:
        return Interval(0.0, 1.0)

    def _mode(self) -> float:
        if self.alpha > 1.0 and self.beta > 1.0:
            return (self.alpha - 1.0) / (self.alpha + self.beta - 2.0)
        if self.alpha <= 1.0 < self.beta:
            return 0.0
        if self.beta <= 1.0 < self.alpha:
            return 1.0
        if self.alpha <= 1.0 and self.beta <= 1.0:
            # Bathtub-shaped: the density is maximised at a boundary; treat the
            # left boundary as the "mode" and compensate in pdf_interval.
            return 0.0
        return 0.5

    def pdf_interval(self, values: Interval) -> Interval:
        if self.alpha < 1.0 or self.beta < 1.0:
            clipped = values.meet(self.support())
            if clipped.is_empty:
                return Interval.point(0.0)
            # Potentially unbounded near the boundary; evaluate endpoints and
            # take a conservative upper bound.
            samples = [self.pdf(x) for x in clipped.sample_points(5)]
            upper = math.inf if clipped.lo <= 0.0 or clipped.hi >= 1.0 else max(samples)
            return Interval(0.0, upper)
        return unimodal_pdf_bounds(self.pdf, self._mode(), values, self.support())


class Exponential(ContinuousDistribution):
    """Exponential distribution with the given rate."""

    name = "exponential"

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError("Exponential requires rate > 0")
        self.rate = float(rate)

    def params(self) -> tuple[float, ...]:
        return (self.rate,)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def pdf(self, value: float) -> float:
        if value < 0.0 or not math.isfinite(value):
            return 0.0
        return self.rate * math.exp(-self.rate * value)

    def cdf(self, value: float) -> float:
        if value <= 0.0:
            return 0.0
        return 1.0 - math.exp(-self.rate * value)

    def quantile(self, probability: float) -> float:
        probability = min(max(probability, 0.0), 1.0 - 1e-16)
        return -math.log1p(-probability) / self.rate

    def support(self) -> Interval:
        return Interval(0.0, math.inf)

    def pdf_interval(self, values: Interval) -> Interval:
        return unimodal_pdf_bounds(self.pdf, 0.0, values, self.support())


class Gamma(ContinuousDistribution):
    """Gamma distribution with shape ``k`` and rate ``rate``."""

    name = "gamma"

    def __init__(self, shape: float, rate: float = 1.0) -> None:
        if shape <= 0 or rate <= 0:
            raise ValueError("Gamma requires positive shape and rate")
        self.shape = float(shape)
        self.rate = float(rate)

    def params(self) -> tuple[float, ...]:
        return (self.shape, self.rate)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, 1.0 / self.rate))

    def pdf(self, value: float) -> float:
        if value < 0.0 or not math.isfinite(value):
            return 0.0
        if value == 0.0:
            if self.shape < 1.0:
                return math.inf
            return self.rate if self.shape == 1.0 else 0.0
        log_density = (
            self.shape * math.log(self.rate)
            + (self.shape - 1.0) * math.log(value)
            - self.rate * value
            - math.lgamma(self.shape)
        )
        return math.exp(log_density)

    def cdf(self, value: float) -> float:
        return float(stats.gamma.cdf(value, self.shape, scale=1.0 / self.rate))

    def quantile(self, probability: float) -> float:
        return float(stats.gamma.ppf(probability, self.shape, scale=1.0 / self.rate))

    def support(self) -> Interval:
        return Interval(0.0, math.inf)

    def _mode(self) -> float:
        return (self.shape - 1.0) / self.rate if self.shape >= 1.0 else 0.0

    def pdf_interval(self, values: Interval) -> Interval:
        if self.shape < 1.0:
            clipped = values.meet(self.support())
            if clipped.is_empty:
                return Interval.point(0.0)
            upper = math.inf if clipped.lo <= 0.0 else self.pdf(clipped.lo)
            return Interval(0.0, upper)
        return unimodal_pdf_bounds(self.pdf, self._mode(), values, self.support())


class Cauchy(ContinuousDistribution):
    """Cauchy distribution with the given location and scale."""

    name = "cauchy"

    def __init__(self, location: float = 0.0, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("Cauchy requires scale > 0")
        self.location = float(location)
        self.scale = float(scale)

    def params(self) -> tuple[float, ...]:
        return (self.location, self.scale)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.location + self.scale * rng.standard_cauchy())

    def pdf(self, value: float) -> float:
        if not math.isfinite(value):
            return 0.0
        z = (value - self.location) / self.scale
        return 1.0 / (math.pi * self.scale * (1.0 + z * z))

    def cdf(self, value: float) -> float:
        return 0.5 + math.atan((value - self.location) / self.scale) / math.pi

    def quantile(self, probability: float) -> float:
        probability = min(max(probability, 1e-16), 1.0 - 1e-16)
        return self.location + self.scale * math.tan(math.pi * (probability - 0.5))

    def support(self) -> Interval:
        return Interval(-math.inf, math.inf)

    def pdf_interval(self, values: Interval) -> Interval:
        return unimodal_pdf_bounds(self.pdf, self.location, values, self.support())
