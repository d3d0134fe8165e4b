"""Tests of the benchmark itself: inputs, oracle, metric names, smoke runs.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import programs
from oracle import PINNED, affine_cdf, contains, oracle_suite

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("generate", [
    lambda seed: programs.cold_stream(seed, 50),
    lambda seed: programs.pool_stream(seed, 50),
    lambda seed: programs.served_stream(seed, 60, preloaded=3),
    lambda seed: programs.oracle_cases(seed),
])
def test_each_seed_yields_the_same_inputs(generate):
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_cold_stream_programs_are_distinct_and_in_range():
    pairs = programs.cold_stream(0, 120)
    assert len(set(pairs)) == len(pairs)
    low, high = programs.DISTANCE_RANGE
    assert all(low <= observed <= high and sigma in programs.SIGMAS for observed, sigma in pairs)


def test_pedestrian_text_is_the_paper_model():
    from repro.analysis.model import program_hash
    from repro.lang import parse
    from repro.models import pedestrian_program

    for observed, sigma in [(1.1, 0.1), (0.9, 0.2)]:
        assert program_hash(parse(programs.pedestrian_source(observed, sigma))) == program_hash(
            pedestrian_program(observed, sigma)
        )


def test_served_stream_mixes_hits_warm_and_cold():
    stream = programs.served_stream(0, 240, preloaded=len(programs.SERVED_WARMUP))
    kinds = {kind: sum(r.kind == kind for r in stream) for kind in ("hit", "warm", "cold")}
    assert all(count >= len(stream) // 5 for count in kinds.values()), kinds
    seen = set()
    for request in stream:
        if request.kind == "hit":
            assert request.key in seen
        seen.add(request.key)
    assert len({r.program for r in stream}) == len(programs.served_programs()) > 8


# ----------------------------------------------------------------------
# Exact oracle
# ----------------------------------------------------------------------

def test_oracle_pins_closed_forms():
    assert affine_cdf([3], 1) == Fraction(1, 3)
    for k in range(1, 8):
        t = Fraction(k, 8)
        assert affine_cdf([1, 1], t) == t**2 / 2
        assert affine_cdf([1, 1, 1], t) == t**3 / 6
        # Above the kink of U + U: 1 - (2 - t)²/2.
        assert affine_cdf([1, 1], 1 + t) == 1 - (1 - t) ** 2 / 2
    assert [case.exact() for case in PINNED] == [
        [Fraction(1, 3)], [Fraction(1, 8)], [Fraction(1, 48)]
    ]


def test_oracle_handles_negative_coefficients_and_clamps():
    # -U <= -1/4  <=>  U >= 1/4.
    assert affine_cdf([-1], Fraction(-1, 4)) == Fraction(3, 4)
    # U - U is symmetric about 0.
    assert affine_cdf([1, -1], 0) == Fraction(1, 2)
    assert affine_cdf([Fraction(1, 2), 2], -1) == 0
    assert affine_cdf([Fraction(1, 2), 2], 3) == 1


def test_oracle_suite_is_dyadic_and_inside_the_support():
    for case in oracle_suite(5, programs=12, thresholds=4):
        for value in case.coefficients + case.thresholds:
            assert Fraction(value).denominator & (Fraction(value).denominator - 1) == 0
        for exact in case.exact():
            assert 0 <= exact <= 1
        assert len(set(case.thresholds)) == len(case.thresholds)


def test_containment_is_decided_in_rationals():
    third = Fraction(1, 3)
    assert not contains(1 / 3, 1 / 3, third)
    assert contains(0.333, 0.334, third)


# ----------------------------------------------------------------------
# Reference units
# ----------------------------------------------------------------------

def test_latency_is_divided_by_the_samples_around_it():
    from reference import HostSpeed

    speed = HostSpeed(samples=[(1.0, 0.010), (2.0, 0.020), (3.0, 0.030)])
    # Sent after the first sample, answered before the third: those two.
    assert speed.around(1.5, 2.5) == pytest.approx(0.020)
    assert speed.in_reference(1.5, 2.5) == pytest.approx(50.0)
    # A short request between two samples uses those two.
    assert speed.around(2.1, 2.2) == pytest.approx(0.025)
    # Past the last sample only the one before counts.
    assert speed.around(3.5, 3.6) == pytest.approx(0.030)


def test_reference_samples_keep_their_interval():
    from reference import HostSpeed

    speed = HostSpeed(interval=60.0)
    speed.tick()
    speed.tick()
    assert len(speed.samples) == 1
    speed.tick(force=True)
    assert len(speed.samples) == 2 and speed.spent > 0


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

def _names(section: str) -> list[str]:
    return [metric["name"] for metric in DECLARED[section]]


def test_metric_names_are_well_formed_and_unique():
    names = _names("end_to_end") + _names("per_layer") + [w["name"] for w in DECLARED["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(_names("end_to_end") + _names("per_layer"))) == len(
        _names("end_to_end") + _names("per_layer")
    )


def test_layer_metrics_match_the_declaration():
    from layers import Tracer, layer_metrics

    emitted = set(layer_metrics(Tracer(), 1))
    emitted |= {"trace.latency_p50_s", "trace.overhead_s", "wall.latency_p50_s", "reference.loop_s"}
    declared = set(_names("per_layer"))
    service = {name for name in declared if name.startswith("service.")}
    assert emitted | service == declared


def test_tracer_restores_every_wrapped_attribute():
    from layers import Tracer
    from repro.polytope import polytope

    tracer = Tracer()
    before = (polytope.ConvexHull, polytope.Polytope.__dict__["volume_bounds"])
    tracer.install()
    assert polytope.ConvexHull is not before[0]
    tracer.remove()
    assert (polytope.ConvexHull, polytope.Polytope.__dict__["volume_bounds"]) == before


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------

def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_passes(workload, trace):
    result = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(report["metrics"]) == _names(section)
    if trace == "0":
        assert all(metric["value"] > 0 for metric in report["metrics"].values())


def test_run_fails_without_the_engine_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    result = _run("--workload", "cold_linear", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""
