"""The three workloads, each a closed loop with one request in flight.

Every workload follows the same shape:

1. **Set-up**, timed and repeated :data:`SETUP_REPEATS` times (the median
   is reported): pool spawn or server start, plus warm-up queries on
   programs outside the timed stream.
2. **The timed stream** for ``seconds`` seconds: the next request is sent
   when the previous one has been answered and checked.
3. **The oracle suite** through the workload's own query route: affine
   sums with exact rational answers (see :mod:`oracle`).

Between requests, untimed, the loop samples the reference loop of
:mod:`reference` at most :data:`reference.INTERVAL` seconds apart, so every
latency can be expressed in units of the host's speed at that moment.

With a :class:`layers.Tracer`, every second request of the stream runs
with the tracer installed and the others without, so one run yields both
the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import programs
from oracle import contains, near
from reference import HostSpeed

#: Set-up runs per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: How far an oracle answer may lie outside its interval before the run
#: counts it as wrong.  Exact containment is measured (``sound_share``),
#: not enforced: float rounding misses the exact value by far less.
ORACLE_SLACK = 1e-9

_REALS = (float("-inf"), float("inf"))


@dataclass
class Run:
    """Everything one run measured and checked."""

    setup_seconds: list[float] = field(default_factory=list)
    #: Latencies of untraced requests that ran the engine.
    latencies: list[float] = field(default_factory=list)
    #: ``(sent, answered)`` times of the requests in :attr:`latencies`.
    latency_spans: list[tuple[float, float]] = field(default_factory=list)
    #: ``(sent, checked)`` times of every answered request of the stream.
    cycles: list[tuple[float, float]] = field(default_factory=list)
    #: Reference-loop samples taken between requests.
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Latencies of traced requests that ran the engine.
    traced_latencies: list[float] = field(default_factory=list)
    #: Latencies of result-cache hits (served mix only).
    hit_latencies: list[float] = field(default_factory=list)
    #: Wall seconds of the closed loop, reference samples excluded.
    loop_seconds: float = 0.0
    #: Requests sent with the tracer installed, result-cache hits included.
    traced_requests: int = 0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    #: Widths of the normalised posterior-probability bounds.
    widths: list[float] = field(default_factory=list)
    #: Widths of the unnormalised denotation bounds (targets and ``R``).
    mass_widths: list[float] = field(default_factory=list)
    oracle_checks: int = 0
    oracle_contained: int = 0
    violations: list[str] = field(default_factory=list)
    #: Typed service errors: failed operations, not wrong answers.
    errors: list[str] = field(default_factory=list)
    #: Workload-specific per-layer numbers (service counters).
    layers: dict = field(default_factory=dict)
    worker_processes: int = 0

    def violation(self, message: str) -> None:
        self.violations.append(message)
        self.failed += 1

    def error(self, error: Exception) -> None:
        self.errors.append(repr(error))
        self.failed += 1

    def check_bounds(self, label: str, lower: float, upper: float, cap: float = math.inf) -> bool:
        """``0 <= lower <= upper <= cap``; a violation otherwise (NaN fails)."""
        if 0.0 <= lower <= upper <= cap:
            return True
        self.violation(f"{label}: ill-formed bounds [{lower!r}, {upper!r}]")
        return False

    def check_oracle(
        self, label: str, case, bounds: list[tuple[float, float]], counted: bool = True
    ) -> None:
        """Check bounds against exact answers; ``counted`` ones feed ``sound_share``."""
        for (lower, upper), exact in zip(bounds, case.exact()):
            self.oracle_checks += counted
            if not self.check_bounds(label, lower, upper, cap=1.0):
                continue
            if contains(lower, upper, exact):
                self.oracle_contained += counted
            elif not near(lower, upper, exact, ORACLE_SLACK):
                self.violation(f"{label}: exact {exact} far outside [{lower!r}, {upper!r}]")

    def mass_width(self, label: str, lower: float, upper: float) -> None:
        """Record the width of one denotation bound, after checks."""
        if self.check_bounds(label, lower, upper):
            self.mass_widths.append(upper - lower)

    def normalised_width(self, label: str, target, lower, upper, z_lower, z_upper) -> None:
        """Record the width of ``Pr[result ∈ target]``'s bounds, after checks.

        Callers check the unnormalised bounds first, through :meth:`mass_width`.
        """
        from repro import Interval
        from repro.analysis.engine import DenotationBounds, normalised_query

        query = normalised_query(
            Interval(*target),
            DenotationBounds(Interval(*target), lower, upper),
            DenotationBounds(Interval(*_REALS), z_lower, z_upper),
        )
        if self.check_bounds(f"{label} (normalised)", query.lower, query.upper, cap=1.0):
            self.widths.append(query.upper - query.lower)


def peak_rss_mb(worker_processes: int) -> float:
    """Peak RSS of this process plus its workers, in MiB.

    ``getrusage`` reports the largest reaped child, so each worker counts
    at that peak; workers must have exited (pools closed) before the call.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * child) / 1024.0


def _timed_setup(run: Run, set_up: Callable, tear_down: Callable):
    """Run ``set_up`` :data:`SETUP_REPEATS` times; keep the last instance."""
    instance = None
    for _ in range(SETUP_REPEATS):
        if instance is not None:
            tear_down(instance)
        start = time.perf_counter()
        instance = set_up()
        run.setup_seconds.append(time.perf_counter() - start)
    return instance


def _closed_loop(
    run: Run,
    seconds: float,
    stream: Iterable,
    send: Callable,
    check: Callable,
    tracer=None,
) -> None:
    """Send requests one at a time until ``seconds`` have passed.

    ``send(item)`` returns ``(response, engine)``, where ``engine`` is false
    for a result-cache hit; ``check(item, response)`` runs untimed.
    """
    start = time.perf_counter()
    deadline = start + seconds
    for index, item in enumerate(stream):
        if time.perf_counter() >= deadline:
            break
        run.speed.tick()
        traced = tracer is not None and index % 2 == 1
        run.attempted += 1
        if traced:
            run.traced_requests += 1
            tracer.query = index
            tracer.install()
        sent = time.perf_counter()
        try:
            response, engine = send(item)
        finally:
            latency = time.perf_counter() - sent
            if traced:
                tracer.remove()
        if response is None:
            continue
        run.completed += 1
        if not engine:
            run.hit_latencies.append(latency)
        elif traced:
            run.traced_latencies.append(latency)
        else:
            run.latencies.append(latency)
            run.latency_spans.append((sent, sent + latency))
        check(item, response)
        run.cycles.append((sent, time.perf_counter()))
    run.speed.tick(force=True)
    run.loop_seconds = time.perf_counter() - start - run.speed.spent


# ----------------------------------------------------------------------
# cold_linear: a fresh serial Model per distinct pedestrian program
# ----------------------------------------------------------------------

def cold_linear(seed: int, seconds: float, tracer=None) -> Run:
    from repro import AnalysisOptions, Interval, Model

    options = AnalysisOptions(
        max_fixpoint_depth=4, score_splits=8, workers=1, executor="serial", refine="off"
    )
    serial = AnalysisOptions(workers=1, executor="serial", refine="off")
    run = Run()

    def query(pair):
        model = Model.parse(programs.pedestrian_source(*pair), options)
        return model.histogram(0.0, 3.0, 6), True

    _timed_setup(run, lambda: query(programs.COLD_WARMUP), lambda _: None)

    def check(pair, histogram) -> None:
        label = f"pedestrian{pair}"
        run.mass_width(label, histogram.z_lower, histogram.z_upper)
        for bucket in histogram.buckets:
            run.mass_width(label, bucket.lower, bucket.upper)
            run.normalised_width(
                label, (bucket.bucket.lo, bucket.bucket.hi), bucket.lower, bucket.upper,
                histogram.z_lower, histogram.z_upper,
            )

    _closed_loop(run, seconds, programs.cold_stream(seed, 100_000), query, check, tracer)
    for case in programs.oracle_cases(seed):
        run.attempted += 1
        bounds = Model.parse(case.source, serial).bounds([Interval(*t) for t in case.targets()])
        run.check_oracle(f"oracle{case.coefficients}", case, [(b.lower, b.upper) for b in bounds])
    return run


# ----------------------------------------------------------------------
# pool_refine: one long-lived Model on a 2-worker process pool
# ----------------------------------------------------------------------

def pool_refine(seed: int, seconds: float, tracer=None) -> Run:
    from repro import AnalysisOptions, Interval, Model

    options = AnalysisOptions(
        max_fixpoint_depth=4, score_splits=8, workers=2, executor="process",
        payload_transport="arena", refine="off",
    )
    refined = options.with_updates(refine="gap")
    reals = Interval(*_REALS)
    grid = programs.pool_targets()
    run = Run(worker_processes=options.workers)

    def set_up():
        model = Model.parse(programs.pedestrian_source(1.1, 0.1), options)
        base = model.bounds([Interval(*target) for target in grid] + [reals])
        model.bounds([Interval(*programs.POOL_WARMUP_TARGET), reals], refined)
        return model, {target: (b.lower, b.upper) for target, b in zip(grid + [_REALS], base)}

    model, base = _timed_setup(run, set_up, lambda instance: instance[0].close())
    try:
        for target, (lower, upper) in base.items():
            run.check_bounds(f"unrefined {target}", lower, upper)

        def query(target):
            return model.bounds([Interval(*target), reals], refined), True

        def check(target, bounds) -> None:
            # The unrefined bounds of set-up bracket the refined ones: the
            # bound on R must nest inside R's, and a target's mass lies
            # between that of the grid intervals inside and outside it.
            bound, total = bounds
            lower, upper = base[_REALS]
            if not lower <= total.lower <= total.upper <= upper:
                run.violation(
                    f"refined R [{total.lower!r}, {total.upper!r}] "
                    f"not inside unrefined [{lower!r}, {upper!r}]"
                )
            outer, inner = programs.pool_brackets(target)
            if bound.lower > base[outer][1] or (inner and bound.upper < base[inner][0]):
                run.violation(
                    f"refined {target} [{bound.lower!r}, {bound.upper!r}] outside the "
                    f"unrefined brackets {outer}: {base[outer]}, {inner}: {base.get(inner)}"
                )
            for entry in bounds:
                run.mass_width(f"refined {target}", entry.lower, entry.upper)
            run.normalised_width(
                f"refined {target}", target, bounds[0].lower, bounds[0].upper,
                bounds[1].lower, bounds[1].upper,
            )

        _closed_loop(run, seconds, programs.pool_stream(seed, 100_000), query, check, tracer)
        executor = model.executor_for(refined)
        for case in programs.oracle_cases(seed):
            run.attempted += 1
            compiled = Model.parse(case.source, refined).compile()
            bounds = compiled.analyze(
                [Interval(*t) for t in case.targets()], refined, executor=executor
            )
            run.check_oracle(f"oracle{case.coefficients}", case, [(b.lower, b.upper) for b in bounds])
    finally:
        model.close()
    return run


# ----------------------------------------------------------------------
# served_mix: one client connection to an in-process bounds server
# ----------------------------------------------------------------------

def _wire_options(options: tuple) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in options}


def served_mix(seed: int, seconds: float, tracer=None) -> Run:
    from repro.service import ServiceClient, ServiceError, serve_in_background

    texts = programs.served_programs()
    run = Run()

    def set_up():
        server = serve_in_background("127.0.0.1:0", query_threads=2)
        client = ServiceClient(server.endpoint)
        for source, options, target in programs.SERVED_WARMUP:
            client.bounds(source, [target, _REALS], options=options)
        return server, client

    def tear_down(instance) -> None:
        server, client = instance
        client.close()
        server.stop()

    server, client = _timed_setup(run, set_up, tear_down)
    answers: dict[tuple, list] = {}
    engine_seconds: list[float] = []
    overheads: list[float] = []
    try:
        def query(request):
            sent = time.perf_counter()
            try:
                reply = client.bounds(
                    texts[request.program].source, request.targets,
                    options=_wire_options(request.options),
                )
            except ServiceError as error:
                run.error(error)
                return None, True
            engine = reply.result_cache != "hit"
            if engine:
                engine_seconds.append(reply.seconds)
                overheads.append(time.perf_counter() - sent - reply.seconds)
            return reply, engine

        def check(request, reply) -> None:
            bounds = [(b.lower, b.upper) for b in reply.bounds]
            first = answers.get(request.key)
            if first is not None:
                # A repeat must return the first answer's floats; the gap
                # metrics count each distinct query once.
                if first != bounds:
                    run.violation(f"{texts[request.program].name}: repeat answered {bounds}, first {first}")
                return
            answers[request.key] = bounds
            program = texts[request.program]
            if program.oracle is not None:
                # Stream oracles are checked; only the suite below counts
                # towards the sound share, so every workload counts the same.
                case = programs.OracleCase(
                    program.oracle.coefficients, tuple(t for _, t in request.targets)
                )
                run.check_oracle(program.name, case, bounds, counted=False)
                run.widths.extend(upper - lower for lower, upper in bounds)
                run.mass_widths.extend(upper - lower for lower, upper in bounds)
                return
            for lower, upper in bounds:
                run.mass_width(program.name, lower, upper)
            (lower, upper), (z_lower, z_upper) = bounds
            run.normalised_width(program.name, request.targets[0], lower, upper, z_lower, z_upper)

        stream = programs.served_stream(seed, 20_000, preloaded=len(programs.SERVED_WARMUP))
        _closed_loop(run, seconds, stream, query, check, tracer)
        stats = client.stats()
        for case in programs.oracle_cases(seed):
            run.attempted += 1
            try:
                reply = client.bounds(case.source, case.targets())
            except ServiceError as error:
                run.error(error)
                continue
            run.check_oracle(f"oracle{case.coefficients}", case, [(b.lower, b.upper) for b in reply.bounds])
    finally:
        tear_down((server, client))

    def ratio(section: dict) -> float:
        total = section.get("hits", 0) + section.get("misses", 0)
        return section.get("hits", 0) / total if total else 0.0

    run.layers.update({
        "service.engine.s": statistics.fmean(engine_seconds) if engine_seconds else 0.0,
        "service.overhead.s": statistics.fmean(overheads) if overheads else 0.0,
        "service.program_cache.hit_ratio": ratio(stats.get("cache", {})),
        "service.result_cache.hit_ratio": ratio(stats.get("results", {})),
        "service.hit_latency_p50_s": (
            statistics.median(run.hit_latencies) if run.hit_latencies else 0.0
        ),
    })
    return run


WORKLOADS = {
    "cold_linear": cold_linear,
    "pool_refine": pool_refine,
    "served_mix": served_mix,
}
