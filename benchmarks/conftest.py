"""Fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper at laptop scale:
it computes the rows/series, asserts the qualitative shape the paper reports,
and both prints the result and writes it to ``benchmarks/results/<name>.txt``
so the numbers survive the pytest capture.  Shared helpers live in
``benchmarks/bench_utils.py``.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20220613)


@pytest.fixture
def bench_once():
    """Run a long-running analysis once and return its result."""

    def runner(function, *args, **kwargs):
        return function(*args, **kwargs)

    return runner
