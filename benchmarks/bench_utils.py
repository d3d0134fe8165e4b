"""Shared helpers for the paper-reproduction benchmarks.

Previously these lived in ``benchmarks/conftest.py`` and were imported via
``from conftest import emit``, which collides with ``tests/conftest.py`` when
pytest collects both directories; benchmark modules import them explicitly
from this module instead.

Every benchmark prints its result block and keeps a copy in
``benchmarks/results/<name>.txt`` (scratch, never tracked).
"""

from __future__ import annotations

import os
import pathlib
from typing import Iterable, TypeVar

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: CI smoke mode: ``REPRO_BENCH_TINY=1`` shrinks every driver's workload to
#: seconds-scale limits.  Quantitative assertions that only hold at full
#: fidelity are skipped in tiny mode (the smoke run checks that every driver
#: still executes end to end, not that the paper's numbers reproduce).
TINY = os.environ.get("REPRO_BENCH_TINY", "").lower() not in ("", "0", "false", "no")

_T = TypeVar("_T")


def scaled(normal: _T, tiny: _T) -> _T:
    """``normal`` at full fidelity, ``tiny`` under ``REPRO_BENCH_TINY=1``."""
    return tiny if TINY else normal


def emit(name: str, lines: Iterable[str]) -> None:
    """Print a result block and keep it as ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
