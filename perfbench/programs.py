"""Seeded inputs of the three workloads.

Everything a run sends to the engine is generated here from ``--seed`` and
nothing else, so one seed always yields the same programs, targets and
request stream.  Parameters are *stratified*: each stream cycles through a
fixed set of strata in a seeded order and jitters inside a stratum, so
runs with different seeds exercise the same mix of program shapes and
their medians agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from oracle import OracleCase, oracle_suite

#: Observation noise levels of the pedestrian programs.
SIGMAS = (0.1, 0.15, 0.2)
#: Observed-distance range of the cold pedestrian stream.
DISTANCE_RANGE = (0.8, 1.6)
#: Distance strata per noise level (``len(SIGMAS) * _DISTANCE_STRATA``
#: programs make one full cycle of the cold stream).
_DISTANCE_STRATA = 4


def pedestrian_source(observed: float, sigma: float) -> str:
    """SPCF text of the pedestrian walk (paper Example 1.1).

    A start point ``3·U`` walks uniform steps towards or away from home
    until it gets there; the travelled distance is observed as
    ``N(observed, sigma)`` and the start point is returned.
    """
    return (
        "(let start (* 3.0 (sample))"
        " (let distance (app (fix walk x (if (- x 0.0) 0.0"
        " (let step (sample)"
        " (choice 0.5 (+ step (app walk (+ x step)))"
        " (+ step (app walk (- x step)))))))"
        " start)"
        f" (let _ (observe normal {observed!r} {sigma!r} distance) start)))"
    )


def gmm_source(observation: float, component_std: float) -> str:
    """A binary Gaussian mixture scored through ``normal_pdf`` (box-analysed)."""
    pdf = f"normal_pdf {observation!r} {component_std!r}"
    return (
        "(let mu (sample normal 0.0 2.0)"
        f" (let _ (score (+ (* 0.5 ({pdf} mu)) (* 0.5 ({pdf} (- 0.0 mu)))))"
        " mu))"
    )


def funnel_source(observation: float, scale: float) -> str:
    """A Neal's-funnel-style hierarchy with one scored observation of ``x``."""
    return (
        f"(let y (sample normal 0.0 {scale!r})"
        " (let x (* (exp (* 0.5 y)) (sample normal 0.0 1.0))"
        f" (let _ (score (normal_pdf {observation!r} 1.0 x)) y)))"
    )


def _strata_order(rng: random.Random, count: int) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# cold_linear
# ----------------------------------------------------------------------

def cold_stream(seed: int, count: int) -> list[tuple[float, float]]:
    """``count`` distinct ``(observed distance, sigma)`` pairs.

    Each block of ``len(SIGMAS) * 4`` pairs covers every ``(sigma,
    distance quarter)`` stratum once, in a seeded order, with a seeded
    distance inside the quarter.
    """
    rng = random.Random(f"cold:{seed}")
    low, high = DISTANCE_RANGE
    width = (high - low) / _DISTANCE_STRATA
    strata = len(SIGMAS) * _DISTANCE_STRATA
    pairs: list[tuple[float, float]] = []
    while len(pairs) < count:
        for stratum in _strata_order(rng, strata):
            sigma = SIGMAS[stratum % len(SIGMAS)]
            quarter = stratum // len(SIGMAS)
            observed = round(low + width * (quarter + rng.random()), 6)
            pairs.append((observed, sigma))
    return pairs[:count]


#: Warm-up program of set-up: outside the timed stream's distance range.
COLD_WARMUP = (0.7, 0.1)


# ----------------------------------------------------------------------
# pool_refine
# ----------------------------------------------------------------------

#: Endpoints of the pooled workload's target intervals (``[g_i, g_j]``).
POOL_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def pool_targets() -> list[tuple[float, float]]:
    """Every grid interval ``[g_i, g_j]``, ``i < j`` (the set-up targets)."""
    grid = POOL_GRID
    return [(grid[i], grid[j]) for i in range(len(grid)) for j in range(i + 1, len(grid))]


#: The grid intervals the pooled stream cycles through.  A target's lower
#: end sets its cost (low ends cover more of the walk's paths), so the
#: strata come in three cost classes of 3, 4 and 3 intervals: the median
#: falls inside the middle class and the p80 inside the slowest.
POOL_STRATA = (
    (0.0, 1.0), (0.5, 2.0), (0.0, 3.0),
    (1.0, 1.5), (1.0, 2.5), (1.5, 2.0), (1.5, 3.0),
    (2.0, 2.5), (2.0, 3.0), (2.5, 3.0),
)


def pool_stream(seed: int, count: int) -> list[tuple[float, float]]:
    """``count`` targets, one per :data:`POOL_STRATA` interval in seeded order, cycled.

    Each target jitters the ends of its grid interval inwards by up to a
    quarter on the ``1/64`` grid, so targets (and the geometry restricted
    to them) are new to the pool's caches while every target keeps the
    grid interval as its outer bound.
    """
    rng = random.Random(f"pool:{seed}")
    stream: list[tuple[float, float]] = []
    while len(stream) < count:
        for index in _strata_order(rng, len(POOL_STRATA)):
            low, high = POOL_STRATA[index]
            stream.append((low + rng.randrange(16) / 64, high - rng.randrange(16) / 64))
    return stream[:count]


def pool_brackets(target: tuple[float, float]):
    """The grid intervals just outside and just inside ``target``.

    The inner one is ``None`` when no grid interval fits inside.
    """
    step = POOL_GRID[1] - POOL_GRID[0]
    low = max(g for g in POOL_GRID if g <= target[0])
    high = min(g for g in POOL_GRID if g >= target[1])
    inner = (low + step, high - step)
    return (low, high), (inner if inner[0] < inner[1] else None)


#: Warm-up target of set-up (not a grid interval, so never in the stream).
POOL_WARMUP_TARGET = (0.25, 1.75)


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServedProgram:
    """One program text of the served mix, with how to query it."""

    name: str
    source: str
    options: dict
    #: Interval the program's result lives in (targets are drawn inside).
    support: tuple[float, float]
    #: The oracle case behind an affine-sum text, ``None`` otherwise.
    oracle: Optional[OracleCase] = None


_PEDESTRIAN_OPTIONS = {"max_fixpoint_depth": 4, "score_splits": 8}
_BOX_OPTIONS = {"analyzers": ["box"]}


def served_programs() -> list[ServedProgram]:
    """The 12 program texts of the served mix (more than the 8-entry cache).

    The texts are fixed; the seed picks the stream over them.
    """
    programs = [
        ServedProgram(
            f"pedestrian{index}", pedestrian_source(observed, sigma),
            _PEDESTRIAN_OPTIONS, (0.0, 3.0),
        )
        for index, (observed, sigma) in enumerate(((0.9, 0.1), (1.1, 0.15), (1.3, 0.2), (1.5, 0.1)))
    ]
    programs += [
        ServedProgram(f"gmm{index}", gmm_source(observation, std), _BOX_OPTIONS, (-4.0, 4.0))
        for index, (observation, std) in enumerate(((0.4, 0.4), (0.8, 0.5), (1.2, 0.6)))
    ]
    programs += [
        ServedProgram(f"funnel{index}", funnel_source(observation, scale), _BOX_OPTIONS, (-6.0, 6.0))
        for index, (observation, scale) in enumerate(((-0.25, 2.0), (0.75, 3.0)))
    ]
    # Affine sums of dimensions 2, 3 and 4 from the oracle generator.
    for index, case in enumerate(oracle_suite(0, programs=4, thresholds=4)[-3:]):
        support = (case.floor + 1.0, case.floor + 1.0 + sum(abs(a) for a in case.coefficients))
        programs.append(ServedProgram(f"affine{index}", case.source, {}, support, case))
    return programs


@dataclass(frozen=True)
class Request:
    """One request of the served stream."""

    #: ``"hit"`` (a repeat the result cache answers), ``"warm"`` (a cached
    #: program with new targets) or ``"cold"`` (an uncached program).
    kind: str
    program: int
    targets: tuple[tuple[float, float], ...]
    options: tuple[tuple[str, object], ...]

    @property
    def key(self) -> tuple:
        return (self.program, self.targets, self.options)


_CACHE_LIMIT = 8  # the server's default program-cache size
#: The new requests of one block of the served stream, as ``(family,
#: refine)``; every block adds :data:`_HITS_PER_BLOCK` repeats.  A fixed
#: composition keeps the work per block, and so the throughput, the same
#: from seed to seed.  Eight of the eleven engine requests answer in
#: milliseconds and three (the pedestrians) in a few tenths of a second,
#: so the median falls inside the fast class and the p85 inside the slow.
_BLOCK = (
    ("pedestrian", False), ("pedestrian", False), ("pedestrian", False),
    ("gmm", False), ("gmm", False), ("gmm", True), ("funnel", False), ("funnel", False),
    ("affine", False), ("affine", False), ("affine", False),
)
_HITS_PER_BLOCK = 5
#: Popularity: the order in which each family's members are requested,
#: cycled.  Member 0 is the most popular; the rarest fall out of the cache.
_POPULARITY = {
    "pedestrian": (0, 1, 0, 2, 0, 1, 0, 3),
    "gmm": (0, 1, 0, 2),
    "funnel": (0, 1, 0),
    "affine": (0, 1, 0, 2),
}
#: Target shapes, in sixteenths of a program's support, cycled per program.
_SHAPES = ((0, 4), (4, 8), (8, 12), (12, 16), (2, 6), (6, 10), (10, 14), (4, 12))


def served_stream(seed: int, count: int, preloaded: int = 0) -> list[Request]:
    """A popularity-skewed stream of hits and new requests over 12 texts.

    The stream comes in blocks of :data:`_BLOCK` new requests plus
    :data:`_HITS_PER_BLOCK` exact repeats of earlier requests, in a seeded
    order.  Each family requests its members in its :data:`_POPULARITY`
    order from a seeded start, so popular texts stay cached while the rare
    ones are evicted and compiled again.  Targets cycle through
    :data:`_SHAPES` per program from a seeded start, with seeded jitter.
    The generator mirrors the server's LRU program cache to label each new
    request ``warm`` or ``cold``; ``preloaded`` programs outside the stream
    (set-up warm-ups) occupy the cache when the stream starts.
    """
    rng = random.Random(f"served:{seed}")
    programs = served_programs()
    families: dict[str, list[int]] = {}
    for index, program in enumerate(programs):
        families.setdefault(program.name.rstrip("0123456789"), []).append(index)
    picks = {family: rng.randrange(len(order)) for family, order in _POPULARITY.items()}
    shapes = {index: rng.randrange(len(_SHAPES)) for index in range(len(programs))}
    lru: list[int] = [-1 - index for index in range(preloaded)]
    answered: list[Request] = []
    stream: list[Request] = []

    def fresh_targets(index: int) -> tuple[tuple[float, float], ...]:
        program = programs[index]
        low, high = program.support
        if program.oracle is not None:
            steps = sorted(rng.sample(range(1, 64), 2))
            return tuple((program.oracle.floor, low + k / 64 * (high - low)) for k in steps)
        first, last = _SHAPES[shapes[index] % len(_SHAPES)]
        shapes[index] += 1
        step = (high - low) / 16
        jitter = step / 4 * rng.randrange(64) / 64
        return ((low + first * step + jitter, low + last * step - jitter), (float("-inf"), float("inf")))

    while len(stream) < count:
        block = list(_BLOCK) + [None] * _HITS_PER_BLOCK
        rng.shuffle(block)
        if not answered:
            block.sort(key=lambda slot: slot is None)  # nothing to repeat yet
        for slot in block:
            if slot is None:
                request = rng.choice(answered)
                request = Request("hit", request.program, request.targets, request.options)
            else:
                family, refine = slot
                order = _POPULARITY[family]
                program = families[family][order[picks[family] % len(order)]]
                picks[family] += 1
                options = dict(programs[program].options, **({"refine": "gap"} if refine else {}))
                request = Request(
                    "warm" if program in lru else "cold", program, fresh_targets(program),
                    tuple(sorted((k, tuple(v) if isinstance(v, list) else v)
                                 for k, v in options.items())),
                )
                answered.append(request)
            # Every request looks its program up in the server's LRU cache,
            # result-cache hits included.
            if request.program in lru:
                lru.remove(request.program)
            lru.append(request.program)
            del lru[:-_CACHE_LIMIT]
            stream.append(request)
    return stream[:count]


#: Warm-up texts of set-up: one of each family, off the stream's parameters.
SERVED_WARMUP = (
    (pedestrian_source(0.7, 0.1), _PEDESTRIAN_OPTIONS, (0.0, 1.5)),
    (gmm_source(1.5, 0.5), _BOX_OPTIONS, (0.0, 2.0)),
    (funnel_source(2.0, 2.5), _BOX_OPTIONS, (-1.0, 1.0)),
)


def oracle_cases(seed: int) -> list[OracleCase]:
    """The oracle suite every workload checks through its own query route."""
    return oracle_suite(seed, programs=40, thresholds=4)
