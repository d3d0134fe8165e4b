"""Concrete traces and the trace space.

A (concrete) trace ``s ∈ T = ⋃_n [0,1]^n`` predetermines the probabilistic
choices of an SPCF execution (paper Section 2.3).  Every ``sample`` consumes
one entry of the trace; non-uniform draws consume a uniform entry and map it
through the distribution's quantile function, which keeps the trace space and
its measure exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Trace", "TraceExhausted", "random_trace", "trace_volume"]

Trace = tuple[float, ...]


class TraceExhausted(Exception):
    """Raised when an execution needs more samples than the trace provides."""


def random_trace(length: int, rng: np.random.Generator) -> Trace:
    """A uniformly random trace of the given length."""
    return tuple(float(u) for u in rng.random(length))


def trace_volume(lengths_and_widths: Iterable[float]) -> float:
    """Product of interval widths — the volume of an interval trace."""
    volume = 1.0
    for width in lengths_and_widths:
        volume *= width
    return volume


@dataclass
class TraceReader:
    """Sequential reader over a fixed trace."""

    trace: Sequence[float]
    position: int = 0

    def next(self) -> float:
        if self.position >= len(self.trace):
            raise TraceExhausted(
                f"trace of length {len(self.trace)} exhausted at position {self.position}"
            )
        value = self.trace[self.position]
        self.position += 1
        return value

    @property
    def consumed(self) -> int:
        return self.position
