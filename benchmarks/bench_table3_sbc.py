"""Table 3: cost of guaranteed bounds vs simulation-based calibration.

The paper compares the running time of GuBPI with the running time of SBC for
diagnosing wrong HMC output on three models (1-d binary GMM, 2-d binary GMM,
pedestrian).  This harness runs both at laptop scale (smaller SBC simulation
counts, reduced fixpoint depth) and reports both running times side by side.
It asserts the paper's qualitative finding that does not depend on timing:
SBC detects the mode-collapsed sampler on the GMM (non-uniform ranks) while a
calibrated sampler passes.  The times come from one run each, so the table
shows them without asserting an order.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import AnalysisOptions, Model
from repro.inference import importance_sampling, simulation_based_calibration
from repro.models import (
    binary_gmm_program,
    binary_gmm_sbc_model,
    pedestrian_program,
    pedestrian_sbc_model,
)

from bench_utils import TINY, emit, scaled

_SBC_SIMULATIONS = scaled(24, 10)
_SBC_SAMPLES = scaled(15, 7)
_rows: list[str] = []


def _is_inference(program, count, rng):
    result = importance_sampling(program, max(count * 6, 300), rng)
    return list(result.resample(count, rng))


def _mode_collapsed_inference(program, count, rng):
    """A deliberately broken sampler: only ever reports the positive mode."""
    result = importance_sampling(program, max(count * 6, 300), rng)
    values = np.abs(result.resample(count, rng))
    return list(values)


def _record(name: str, gubpi_seconds: float, sbc_seconds: float, detected: bool) -> None:
    _rows.append(
        f"{name:22s} GuBPI={gubpi_seconds:7.2f}s   SBC={sbc_seconds:7.2f}s   "
        f"broken sampler flagged by SBC: {detected}"
    )
    emit("table3_sbc", _rows)


def test_binary_gmm_1d(bench_once, rng):
    gmm = Model(
        binary_gmm_program(observation=1.0),
        AnalysisOptions(splits_per_dimension=scaled(120, 24), analyzers=("box",)),
    )
    start = time.perf_counter()
    histogram = bench_once(gmm.histogram, -3.0, 3.0, 10)
    gubpi_seconds = time.perf_counter() - start

    model = binary_gmm_sbc_model()
    start = time.perf_counter()
    good = simulation_based_calibration(model, _is_inference, _SBC_SIMULATIONS, _SBC_SAMPLES, rng)
    broken = simulation_based_calibration(
        model, _mode_collapsed_inference, _SBC_SIMULATIONS, _SBC_SAMPLES, rng
    )
    sbc_seconds = time.perf_counter() - start

    detected = not broken.looks_calibrated
    _record("binary GMM (1d)", gubpi_seconds, sbc_seconds, detected)

    assert histogram.z_lower > 0
    if not TINY:
        assert good.looks_calibrated
        assert detected


def test_pedestrian(bench_once, rng):
    pedestrian = Model(
        pedestrian_program(), AnalysisOptions(max_fixpoint_depth=scaled(4, 3), score_splits=scaled(16, 6))
    )
    start = time.perf_counter()
    bench_once(pedestrian.histogram, 0.0, 3.0, 4)
    gubpi_seconds = time.perf_counter() - start

    model = pedestrian_sbc_model()
    start = time.perf_counter()
    sbc = simulation_based_calibration(model, _is_inference, scaled(8, 4), scaled(7, 5), rng)
    sbc_seconds = time.perf_counter() - start
    _record("pedestrian", gubpi_seconds, sbc_seconds, not sbc.looks_calibrated)

    assert len(sbc.ranks) == scaled(8, 4)
