"""Golden-file regression tests for paper-figure posterior bounds.

The engine's correctness story ("guaranteed bounds") makes silent bound
*loosening* the most dangerous regression class: every refactor that drops a
constraint, mis-merges a chunk or weakens an analyzer still produces
formally-sound-looking numbers.  These tests pin the exact bounds of two
paper workloads — the pedestrian model (Example 1.1 / Figure 7) and a
recursive geometric counter — at small :class:`ExecutionLimits`, so any
change to the computed bounds is an explicit, reviewed event.

To regenerate after an *intentional* bounds change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_regression.py

and commit the refreshed ``tests/golden/*.json`` together with the change
that caused it.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.analysis import AnalysisOptions, Model
from repro.intervals import Interval
from repro.models import binary_gmm_program, cav_example_7
from repro.models.pedestrian import pedestrian_program

from helpers import geometric_program

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
_REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "").lower() not in ("", "0", "false", "no")

#: Bit-level reproducibility is guaranteed only for a fixed dependency stack;
#: across NumPy/SciPy/qhull versions the volume computations may move by a few
#: ulps, so the pin uses a tight-but-not-exact tolerance.  It is relative
#: only (every comparison passes ``abs=0.0``): pinned values run down to
#: 1e-51, and any absolute slack would leave the small ones unpinned.
_RTOL = 1e-9

_SCENARIOS = {
    "pedestrian_depth4": {
        "build": lambda: Model(
            pedestrian_program(),
            AnalysisOptions(max_fixpoint_depth=4, score_splits=8, workers=1, executor="serial"),
        ),
        "targets": [Interval(0.0, 1.0), Interval(1.0, 2.0), Interval(2.0, 3.0)],
        "histogram": (0.0, 3.0, 6),
    },
    "geometric_depth6": {
        "build": lambda: Model(
            geometric_program(0.5),
            AnalysisOptions(max_fixpoint_depth=6, workers=1, executor="serial"),
        ),
        "targets": [Interval(-0.5, 0.5), Interval(0.5, 1.5), Interval(1.5, 2.5)],
        "histogram": (0.0, 4.0, 4),
    },
    # A continuous-model benchmark driver workload (Fig. 5c, box semantics)…
    "binary_gmm_box24": {
        "build": lambda: Model(
            binary_gmm_program(),
            AnalysisOptions(
                splits_per_dimension=24, analyzers=("box",), workers=1, executor="serial"
            ),
        ),
        "targets": [Interval(-1.0, 0.0), Interval(0.0, 1.0), Interval(-3.0, 3.0)],
        "histogram": (-3.0, 3.0, 6),
    },
    # …and a recursive-model driver workload (Fig. 6a, the CAV'13 counter).
    "cav_example7_depth6": {
        "build": lambda: Model(
            cav_example_7(),
            AnalysisOptions(
                max_fixpoint_depth=6,
                score_splits=8,
                splits_per_dimension=6,
                max_boxes_per_path=4_000,
                workers=1,
                executor="serial",
            ),
        ),
        "targets": [Interval(-0.5, 0.5), Interval(0.5, 1.5), Interval(1.5, 2.5)],
        "histogram": (0.0, 6.0, 6),
    },
}


def compute_snapshot(scenario: dict) -> dict:
    """All pinned numbers of one scenario, as plain JSON-compatible data."""
    model = scenario["build"]()
    bounds = model.bounds(scenario["targets"])
    queries = [model.probability(target) for target in scenario["targets"]]
    low, high, buckets = scenario["histogram"]
    histogram = model.histogram(low, high, buckets)
    return {
        "denotation_bounds": [
            {"target": [bound.target.lo, bound.target.hi], "lower": bound.lower, "upper": bound.upper}
            for bound in bounds
        ],
        "query_bounds": [
            {"target": [query.target.lo, query.target.hi], "lower": query.lower, "upper": query.upper}
            for query in queries
        ],
        "histogram": {
            "z_lower": histogram.z_lower,
            "z_upper": histogram.z_upper,
            "buckets": [
                {"bucket": [bucket.bucket.lo, bucket.bucket.hi], "lower": bucket.lower, "upper": bucket.upper}
                for bucket in histogram.buckets
            ],
        },
    }


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_bounds_match_golden(name):
    snapshot = compute_snapshot(_SCENARIOS[name])
    path = golden_path(name)
    if _REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden file {path} is missing; run REPRO_REGEN_GOLDEN=1 pytest {__file__}"
    )
    golden = json.loads(path.read_text())

    for kind in ("denotation_bounds", "query_bounds"):
        assert len(snapshot[kind]) == len(golden[kind])
        for current, pinned in zip(snapshot[kind], golden[kind]):
            assert current["target"] == pinned["target"]
            assert current["lower"] == pytest.approx(pinned["lower"], rel=_RTOL, abs=0.0), (
                f"{name}/{kind}: lower bound moved for target {pinned['target']}"
            )
            assert current["upper"] == pytest.approx(pinned["upper"], rel=_RTOL, abs=0.0), (
                f"{name}/{kind}: upper bound moved for target {pinned['target']}"
            )

    assert snapshot["histogram"]["z_lower"] == pytest.approx(
        golden["histogram"]["z_lower"], rel=_RTOL, abs=0.0
    )
    assert snapshot["histogram"]["z_upper"] == pytest.approx(
        golden["histogram"]["z_upper"], rel=_RTOL, abs=0.0
    )
    for current, pinned in zip(snapshot["histogram"]["buckets"], golden["histogram"]["buckets"]):
        assert current["bucket"] == pinned["bucket"]
        assert current["lower"] == pytest.approx(pinned["lower"], rel=_RTOL, abs=0.0)
        assert current["upper"] == pytest.approx(pinned["upper"], rel=_RTOL, abs=0.0)


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_parallel_engine_matches_golden(name):
    """The parallel engine is held to the same pinned numbers as the serial one."""
    path = golden_path(name)
    if not path.exists():
        pytest.skip("golden file not generated yet")
    golden = json.loads(path.read_text())
    scenario = _SCENARIOS[name]
    model = scenario["build"]()
    options = model.options.with_updates(workers=2, executor="thread")
    with model:
        bounds = model.bounds(scenario["targets"], options)
    for current, pinned in zip(bounds, golden["denotation_bounds"]):
        assert current.lower == pytest.approx(pinned["lower"], rel=_RTOL, abs=0.0)
        assert current.upper == pytest.approx(pinned["upper"], rel=_RTOL, abs=0.0)
