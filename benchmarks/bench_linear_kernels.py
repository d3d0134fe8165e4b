"""Micro-benchmarks of the linear-analyzer kernels behind the ≥5× speedup.

``bench_columnar_core.py`` gates the end-to-end ``linear_default`` speedup;
this driver isolates the three layers that produce it and pins each one's
bit-equality claim:

* **batched LP kernel** — bounding many linear objectives over one polytope
  through the prepared HiGHS model (:class:`repro.polytope.BatchPolytope`)
  vs issuing each objective as a fresh ``scipy.optimize.linprog`` call (the
  pre-batching path, still the fallback when the kernel binding is absent).
  Every batched bound is asserted bit-identical to its ``linprog`` twin;
* **cross-path geometry cache** — the pedestrian workload's paths analysed
  with one shared :class:`~repro.analysis.linear_analyzer.GeometryCache`
  vs a fresh cache per path (the pre-PR behaviour).  Bounds are asserted
  identical; the record reports the volume hit rate that repeated queries
  enjoy;
* **whole-array density liftings** — the vectorised ``uniform_pdf`` /
  ``beta_pdf`` / ``normal_pdf`` cell kernels vs the generic per-cell
  interval lifting, asserted bit-identical cell by cell.

Acceptance gates (full fidelity only): the batched LP sweep is **≥ 5×**
faster than the ``linprog`` loop, the shared geometry cache scores hits on
the reference workload, and the lifting table covers ``uniform_pdf`` and
``beta_pdf`` (the bit-equality assertions run in tiny mode too — they are
the CI smoke gate).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import linprog

from repro.analysis import AnalysisOptions
from repro.analysis.linear_analyzer import (
    GeometryCache,
    analyze_path_linear,
    linear_analysis_applicable,
)
from repro.analysis.vectorize import _ARRAY_LIFTINGS, ScalarFallback
from repro.intervals import Interval, get_primitive
from repro.models import pedestrian_program
from repro.polytope import BatchPolytope, Polytope, kernel_available
from repro.symbolic import symbolic_paths
from repro.symbolic.execute import ExecutionLimits

from bench_utils import TINY, emit, scaled

_TARGETS = (Interval(0.0, 1.0), Interval.reals())


# ----------------------------------------------------------------------
# Layer 1: batched LP kernel vs scalar linprog loop
# ----------------------------------------------------------------------

def _make_polytopes(rng, count: int, dimension: int) -> list[Polytope]:
    """Box polytopes with a few extra slopes — the analyzer's typical shape."""
    polytopes = []
    for _ in range(count):
        box = Polytope.from_box([Interval(0.0, 1.0)] * dimension)
        extra = rng.normal(size=(3, dimension))
        rhs = rng.uniform(0.5, 2.0, size=3) * np.linalg.norm(extra, axis=1)
        polytopes.append(box.add_constraints(extra.tolist(), rhs.tolist()))
    return polytopes


def _linprog_bound(polytope: Polytope, row) -> Interval | None:
    """``Polytope.bound_linear`` as the ``linprog`` fallback computes it
    (presolve off, like the kernel)."""
    coefficients = np.asarray(row, dtype=float)
    values = []
    for sign in (1.0, -1.0):
        result = linprog(
            sign * coefficients,
            A_ub=polytope.a,
            b_ub=polytope.b,
            bounds=[(None, None)] * polytope.dimension,
            method="highs",
            options={"presolve": False},
        )
        if result.status == 2 or not result.success:
            return None
        values.append(float(sign * result.fun))
    lo, hi = values
    if lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def _lp_section(rng, records: dict, lines: list[str]) -> None:
    dimension = 5
    polytopes = _make_polytopes(rng, scaled(12, 3), dimension)
    per_polytope = scaled(40, 8)
    rows = [
        [rng.normal(size=dimension).tolist() for _ in range(per_polytope)]
        for _ in polytopes
    ]

    start = time.perf_counter()
    scalar_bounds = [
        [_linprog_bound(polytope, row) for row in objective_rows]
        for polytope, objective_rows in zip(polytopes, rows)
    ]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_bounds = [
        BatchPolytope(polytope).bound_rows(objective_rows)
        for polytope, objective_rows in zip(polytopes, rows)
    ]
    batched_seconds = time.perf_counter() - start

    solves = 2 * sum(len(objective_rows) for objective_rows in rows)
    mismatches = 0
    if kernel_available():
        # The foundational claim: the prepared-kernel solve returns the exact
        # floats the linprog wrapper would (the wrapper itself runs HiGHS).
        for scalar_row, batched_row in zip(scalar_bounds, batched_bounds):
            for reference, candidate in zip(scalar_row, batched_row):
                if reference is None or candidate is None:
                    mismatches += int(reference is not candidate)
                elif (reference.lo, reference.hi) != (candidate.lo, candidate.hi):
                    mismatches += 1
        assert mismatches == 0, f"{mismatches} batched LP bounds differ from linprog"

    records["lp_kernel"] = {
        "kernel_available": kernel_available(),
        "dimension": dimension,
        "lp_solves": solves,
        "scalar_linprog_seconds": scalar_seconds,
        "batched_kernel_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds if batched_seconds > 0 else float("inf"),
    }
    lines.append(
        f"LP kernel: {solves} solves, linprog {scalar_seconds:.3f}s vs batched "
        f"{batched_seconds:.3f}s (×{records['lp_kernel']['speedup']:.2f}, "
        f"kernel_available={kernel_available()}, bit-identical)"
    )


# ----------------------------------------------------------------------
# Layer 2: shared geometry cache vs fresh cache per path
# ----------------------------------------------------------------------

def _cache_section(records: dict, lines: list[str]) -> None:
    limits = ExecutionLimits(max_fixpoint_depth=scaled(5, 3))
    paths = [
        path
        for path in symbolic_paths(pedestrian_program(), limits).paths
        if linear_analysis_applicable(path)
    ]
    options = AnalysisOptions(score_splits=scaled(8, 4))
    targets = list(_TARGETS)

    start = time.perf_counter()
    fresh_results = [analyze_path_linear(path, targets, options) for path in paths]
    fresh_seconds = time.perf_counter() - start

    shared = GeometryCache()
    start = time.perf_counter()
    shared_results = [
        analyze_path_linear(path, targets, options, shared) for path in paths
    ]
    shared_seconds = time.perf_counter() - start
    # The sharing invariant: a cache hit returns the identical float64s a
    # fresh computation would, so per-path bounds cannot depend on the cache.
    assert shared_results == fresh_results, "shared geometry cache moved a bound"

    stats = shared.stats()
    volume_lookups = stats["volume_hits"] + stats["volume_misses"]
    records["geometry_cache"] = {
        "paths": len(paths),
        "fresh_cache_seconds": fresh_seconds,
        "shared_cache_seconds": shared_seconds,
        "speedup": fresh_seconds / shared_seconds if shared_seconds > 0 else float("inf"),
        "volume_hit_rate": stats["volume_hits"] / volume_lookups if volume_lookups else 0.0,
        **stats,
    }
    lines.append(
        f"geometry cache: {len(paths)} paths, fresh {fresh_seconds:.3f}s vs shared "
        f"{shared_seconds:.3f}s (×{records['geometry_cache']['speedup']:.2f}); "
        f"volume hits {stats['volume_hits']}/{volume_lookups} "
        f"({records['geometry_cache']['volume_hit_rate']:.1%}), bounds identical"
    )


# ----------------------------------------------------------------------
# Layer 3: whole-array density liftings vs the generic per-cell loop
# ----------------------------------------------------------------------

def _interval_columns(rng, count: int, low: float, high: float, point: bool = False):
    lo = rng.uniform(low, high, size=count)
    width = np.zeros(count) if point else rng.uniform(0.0, (high - low) / 4.0, size=count)
    return lo, lo + width


def _density_cases(rng, count: int):
    """Well-formed argument columns per lifted primitive (no fallback cells)."""
    u_low = _interval_columns(rng, count, -1.0, 0.0, point=True)
    u_high = _interval_columns(rng, count, 0.5, 2.0, point=True)
    b_alpha = _interval_columns(rng, count, 0.5, 3.0, point=True)
    b_beta = _interval_columns(rng, count, 0.5, 3.0, point=True)
    value = _interval_columns(rng, count, -0.5, 1.5)
    return {
        "uniform_pdf": (u_low, u_high, value),
        "beta_pdf": (b_alpha, b_beta, value),
        "normal_pdf": (
            _interval_columns(rng, count, -1.0, 1.0),
            _interval_columns(rng, count, 0.2, 2.0),
            value,
        ),
    }


def _generic_cells(op: str, args, count: int):
    """The generic per-cell lifting the array kernels replace (see
    ``repro.analysis.vectorize.evaluate_cells``)."""
    primitive = get_primitive(op)
    out_lo = np.empty(count)
    out_hi = np.empty(count)
    for cell in range(count):
        intervals = [Interval(float(alo[cell]), float(ahi[cell])) for alo, ahi in args]
        value = primitive.apply_interval(*intervals)
        if value.is_empty:
            raise ScalarFallback
        out_lo[cell] = value.lo
        out_hi[cell] = value.hi
    return out_lo, out_hi


def _density_section(rng, records: dict, lines: list[str]) -> None:
    count = scaled(20_000, 512)
    cases = _density_cases(rng, count)
    records["density_liftings"] = {"coverage": sorted(_ARRAY_LIFTINGS), "cells": count}
    for op, args in cases.items():
        kernel = _ARRAY_LIFTINGS[op]
        start = time.perf_counter()
        vec_lo, vec_hi = kernel(args, count)
        vector_seconds = time.perf_counter() - start
        start = time.perf_counter()
        ref_lo, ref_hi = _generic_cells(op, args, count)
        generic_seconds = time.perf_counter() - start
        assert np.array_equal(vec_lo, ref_lo) and np.array_equal(vec_hi, ref_hi), (
            f"{op} array lifting diverged from the scalar interval lifting"
        )
        records["density_liftings"][op] = {
            "generic_seconds": generic_seconds,
            "vectorized_seconds": vector_seconds,
            "speedup": generic_seconds / vector_seconds if vector_seconds > 0 else float("inf"),
        }
        lines.append(
            f"{op}: {count} cells, generic {generic_seconds:.3f}s vs vectorised "
            f"{vector_seconds:.3f}s (×{records['density_liftings'][op]['speedup']:.1f}, "
            "bit-identical)"
        )


def test_linear_kernels(bench_once, rng):
    records: dict = {}
    lines: list[str] = []

    def run_all():
        _lp_section(rng, records, lines)
        _cache_section(records, lines)
        _density_section(rng, records, lines)

    bench_once(run_all)
    emit("linear_kernels", lines, data=records)

    coverage = set(records["density_liftings"]["coverage"])
    assert {"uniform_pdf", "beta_pdf", "normal_pdf"} <= coverage

    if not TINY:
        lp = records["lp_kernel"]
        if lp["kernel_available"]:
            assert lp["speedup"] >= 5.0, (
                f"batched LP kernel speedup ×{lp['speedup']:.2f} < 5.0"
            )
        cache = records["geometry_cache"]
        assert cache["volume_hits"] > 0, "shared geometry cache never hit"
        assert math.isfinite(cache["speedup"])
