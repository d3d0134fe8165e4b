"""Seeded chaos suite: deterministic fault injection across the service tier.

Every scenario here installs a :class:`repro.faults.FaultPlan` — in this
process (queue/server/transport/stream sites) or in a spawned worker's
environment (``worker.*`` sites) — and asserts that the stack *recovers*:
every recovered query's bounds are **bit-identical** to the fault-free
golden run, because retries, requeues and the degradation ladder all replay
the identical chunk body and merge in canonical path order.

Covered fault scenarios (all seeded, all deterministic):

==== ==========================================================  ==========
#    scenario                                                    layer
==== ==========================================================  ==========
1    job frame silently dropped → timeout, requeue, complete     protocol
2    resource frame truncated mid-send → requeue, bit-identical  protocol
3    every job frame delayed → only latency, bit-identical       protocol
4    resource frame slow-lorised → still delivered intact        protocol
5    worker attach failure → retry elsewhere, bit-identical      worker
6    worker job failure → error frame, healthy retry             worker
7    worker dies at job 2 of a refined streamed query →           worker
     ladder completes, partials monotone, final bit-identical
8    every worker dies at job 1 → full degradation ladder         worker
     (socket → process/serial), batch bounds bit-identical
9    heartbeats suppressed → wedged worker reaped in ~3 beats,   worker
     not the 30 s job timeout
10   shared-memory publish failure → inline table images,        transport
     bit-identical
11   mid-stream path explosion injected → typed error surfaces   transport
12   server query fault → typed FAULT frame, connection usable   server
13   backpressure: slot held → typed BUSY with retry-after       server
14   client deadline expires server-side → typed                 server
     DEADLINE_EXCEEDED, later queries unaffected
==== ==========================================================  ==========

The fast classes at the top (plan parsing, backoff, taxonomy) run in the
tier-1 suite; network scenarios are ``slow``-marked like the rest of the
service tests and run in the ``tests-service`` CI job with ``-m ""``.
"""

from __future__ import annotations

import socket
import threading
import time
import warnings

import pytest

from repro import faults, intervals
from repro.analysis.config import AnalysisOptions
from repro.analysis.model import Model
from repro.faults import FaultPlan
from repro.lang import parse
from repro.service import (
    DeadlineExceeded,
    JobError,
    JobRetriesExhausted,
    ServerBusy,
    ServiceClient,
    ServiceError,
    ServiceFault,
    WorkerLost,
    WorkQueueServer,
    serve_in_background,
)
from repro.service.protocol import error_from_frame
from repro.service.worker import BoundWorker
from repro.symbolic import PathExplosionError

#: Same two-path weighted model the service suite uses — small enough to
#: run in every scenario, branchy enough to chunk.
BRANCHY_SRC = """
(let x (sample uniform 0 1)
  (let y (sample uniform 0 1)
    (if (- x y)
        (let z (score (+ 0.5 x)) (+ x y))
        (let z (score (- 1.5 x)) (* x y)))))
"""

TARGETS = (intervals.Interval(0.0, 0.5), intervals.Interval(0.5, 1.0))


def as_pairs(bounds):
    return [(entry.lower, entry.upper) for entry in bounds]


@pytest.fixture(scope="module")
def serial_bounds():
    """The fault-free golden: one serial run, exact floats."""
    model = Model(parse(BRANCHY_SRC))
    try:
        return as_pairs(model.bounds(TARGETS, AnalysisOptions()))
    finally:
        model.close()


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    faults.uninstall()
    yield
    faults.uninstall()


# ---------------------------------------------------------------------------
# Fault plans (fast, tier-1)
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=42; worker.job:die@2; queue.send.job:drop@1,3;"
            "a.b:delay(0.5)@3+; x:fail@*"
        )
        assert plan.seed == 42
        assert [rule.site for rule in plan.rules] == [
            "worker.job", "queue.send.job", "a.b", "x",
        ]
        assert plan.rules[0].action.kind == "die"
        assert plan.rules[2].action == faults.FaultAction("delay", 0.5)

    def test_hit_specs_select_exact_hits(self):
        plan = FaultPlan.parse("s:fail@2")
        assert [plan.decide("s") for _ in range(3)] == [
            None, faults.FaultAction("fail"), None,
        ]
        plan = FaultPlan.parse("s:fail@1,3")
        assert [plan.decide("s") is not None for _ in range(4)] == [
            True, False, True, False,
        ]
        plan = FaultPlan.parse("s:fail@3+")
        assert [plan.decide("s") is not None for _ in range(5)] == [
            False, False, True, True, True,
        ]
        plan = FaultPlan.parse("s:fail@*")
        assert all(plan.decide("s") is not None for _ in range(4))

    def test_hit_counters_are_per_site(self):
        plan = FaultPlan.parse("a:fail@2")
        assert plan.decide("b") is None  # does not advance site "a"
        assert plan.decide("a") is None
        assert plan.decide("a") is not None
        assert plan.hit_count("a") == 2
        assert plan.hit_count("b") == 1

    @pytest.mark.parametrize("bad", [
        "s:frobnicate@1",        # unknown action
        "no-colon",              # missing site:action
        "s:fail",                # missing @hits
        "s:fail@0",              # hits are 1-based
        "s:fail@0+",
        "s:fail@",
    ])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_same_seed_same_default_params(self):
        one = FaultPlan.parse("seed=7;s:delay@*")
        two = FaultPlan.parse("seed=7;s:delay@*")
        assert [one.default_param() for _ in range(5)] == [
            two.default_param() for _ in range(5)
        ]

    def test_disabled_plan_is_a_noop(self):
        assert faults.active() is None
        assert faults.decide("anything") is None

    def test_injected_installs_and_restores(self):
        with faults.injected("s:fail@1") as plan:
            assert faults.active() is plan
            assert faults.decide("s") == faults.FaultAction("fail")
        assert faults.active() is None


# ---------------------------------------------------------------------------
# Reconnect backoff (fast, tier-1) — satellite: auto-reconnect unit test
# ---------------------------------------------------------------------------

class TestReconnectBackoff:
    def test_backoff_is_seeded_and_bounded(self):
        make = lambda: BoundWorker(
            "127.0.0.1:1", jitter_seed=7,
            reconnect_delay=0.1, reconnect_max_delay=5.0,
        )
        one, two = make(), make()
        delays_one = [one._reconnect_delay(k) for k in range(1, 12)]
        delays_two = [two._reconnect_delay(k) for k in range(1, 12)]
        assert delays_one == delays_two  # same seed, same jitter draws
        for failures, delay in enumerate(delays_one, start=1):
            assert 0.0 <= delay <= min(5.0, 0.1 * 2 ** (failures - 1))

    def test_backoff_window_grows_then_caps(self):
        worker = BoundWorker(
            "127.0.0.1:1", jitter_seed=0,
            reconnect_delay=0.5, reconnect_max_delay=2.0,
        )
        # The *window* is exponential then capped; sample many draws to see
        # its upper edge (draws are uniform over [0, window]).
        window = lambda k: max(worker._reconnect_delay(k) for _ in range(200))
        assert window(1) <= 0.5
        assert window(3) <= 2.0
        assert window(10) <= 2.0  # capped, never 0.5 * 2**9

    def test_max_attempts_cap_gives_up(self):
        # A port with nothing listening: connects fail fast, and after
        # reconnect_attempts consecutive failures run() returns.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = BoundWorker(
            f"127.0.0.1:{port}", reconnect_attempts=3,
            reconnect_delay=0.001, reconnect_max_delay=0.002, jitter_seed=1,
        )
        start = time.monotonic()
        worker.run()  # returns instead of looping forever
        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Error taxonomy (fast, tier-1) — satellite: typed errors
# ---------------------------------------------------------------------------

class TestErrorTaxonomy:
    def test_wire_codes_decode_to_typed_exceptions(self):
        cases = {
            "FAULT": ServiceFault,
            "DEADLINE_EXCEEDED": DeadlineExceeded,
            "WORKER_LOST": WorkerLost,
        }
        for code, cls in cases.items():
            error = error_from_frame({"code": code, "error": "boom"})
            assert type(error) is cls
            assert "boom" in str(error)

    def test_busy_carries_retry_after(self):
        error = error_from_frame(
            {"code": "BUSY", "error": "full", "retry_after": 0.25}
        )
        assert isinstance(error, ServerBusy)
        assert error.retry_after == 0.25

    def test_untyped_and_unknown_codes_stay_plain(self):
        for frame in (
            {"exc_type": "ParseError", "error": "bad"},
            {"code": "SOMETHING_NEW", "error": "bad"},
        ):
            error = error_from_frame(frame)
            assert type(error) is ServiceError

    def test_hierarchy(self):
        assert issubclass(JobRetriesExhausted, WorkerLost)
        for cls in (ServiceFault, ServerBusy, DeadlineExceeded, WorkerLost):
            assert issubclass(cls, ServiceError)


# ---------------------------------------------------------------------------
# Protocol-layer chaos (scenarios 1–4)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestProtocolChaos:
    def test_dropped_job_frame_times_out_and_retries(self):
        with WorkQueueServer() as queue:
            queue.spawn_local_workers(1)
            assert queue.wait_for_workers(1, timeout=30)
            with faults.injected("seed=1;queue.send.job:drop@1") as plan:
                future = queue.submit_sleep(0.01, timeout=1.0, retries=2)
                assert future.result(timeout=30) is None
                assert plan.hit_count("queue.send.job") >= 2  # retry re-sent
            assert queue.stats()["requeued"] >= 1
            assert queue.stats()["completed"] == 1

    def test_truncated_resource_frame_recovers_bit_identical(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(
                executor="socket", workers=2, chunk_size=1,
                job_timeout=10.0, job_retries=2,
            )
            with faults.injected("seed=2;queue.send.resource:truncate@1"):
                assert as_pairs(model.bounds(TARGETS, options)) == serial_bounds
            executor = model._executors[options.executor_key()]
            assert executor._queue.stats()["requeued"] >= 1
        finally:
            model.close()

    def test_delayed_job_frames_only_add_latency(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(executor="socket", workers=2, chunk_size=1)
            with faults.injected("seed=3;queue.send.job:delay(0.05)@*"):
                assert as_pairs(model.bounds(TARGETS, options)) == serial_bounds
            executor = model._executors[options.executor_key()]
            assert executor._queue.stats()["failed"] == 0
        finally:
            model.close()

    def test_slowloris_resource_frame_still_delivers(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(executor="socket", workers=2, chunk_size=1)
            with faults.injected("seed=4;queue.send.resource:slowloris(0.002)@1"):
                assert as_pairs(model.bounds(TARGETS, options)) == serial_bounds
        finally:
            model.close()


# ---------------------------------------------------------------------------
# Worker-layer chaos (scenarios 5–9)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestWorkerChaos:
    def test_attach_failure_retries_elsewhere_bit_identical(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(
                executor="socket", workers=2, chunk_size=1,
                socket_spawn_workers=0, job_timeout=10.0, job_retries=2,
            )
            executor = model._executor_for(options)
            queue = executor._ensure_queue()
            # Only the first worker fails its first attach; the survivor
            # (and the faulted worker's own retry) are clean.
            queue.spawn_local_workers(2, faults="seed=5;worker.attach:fail@1")
            assert queue.wait_for_workers(2, timeout=30)
            assert as_pairs(model.bounds(TARGETS, options)) == serial_bounds
        finally:
            model.close()

    def test_job_fault_reports_error_and_retries(self):
        with WorkQueueServer() as queue:
            queue.spawn_local_workers(1, faults="seed=6;worker.job:fail@1")
            assert queue.wait_for_workers(1, timeout=30)
            future = queue.submit_sleep(0.01, retries=2)
            assert future.result(timeout=30) is None  # hit 2 runs clean
            assert queue.stats()["requeued"] == 1

    def test_job_fault_every_attempt_surfaces_job_error(self):
        with WorkQueueServer() as queue:
            queue.spawn_local_workers(1, faults="seed=6;worker.job:fail@*")
            assert queue.wait_for_workers(1, timeout=30)
            future = queue.submit_sleep(0.01, retries=1)
            with pytest.raises(JobError, match="FaultInjected"):
                future.result(timeout=30)

    def test_worker_dies_mid_refined_stream_partials_monotone(self):
        """Satellite: kill a worker during a refined streamed query.

        The faulted worker exits with no goodbye at its *second* job (the
        ``die`` action is the SIGKILL primitive) — between the streamed
        chunks and the refinement rounds.  The stranded and remaining work
        rides the degradation ladder; the streamed partials stay monotone
        and the final refined bounds are bit-identical to a fault-free run
        of the same options.
        """
        base = AnalysisOptions(
            chunk_size=1, stream=True, stream_cache_budget=None,
            refine="gap", refine_max_rounds=2,
        )
        golden_model = Model(parse(BRANCHY_SRC))
        try:
            golden = as_pairs(golden_model.bounds(TARGETS, base))
        finally:
            golden_model.close()

        options = base.with_updates(
            executor="socket", workers=2, socket_spawn_workers=0,
            io_timeout=1.0, job_timeout=10.0, job_retries=1,
        )
        model = Model(parse(BRANCHY_SRC))
        try:
            executor = model._executor_for(options)
            queue = executor._ensure_queue()
            queue.spawn_local_workers(1, faults="seed=7;worker.job:die@2")
            assert queue.wait_for_workers(1, timeout=30)
            partials: list[list[tuple[float, float]]] = []
            with pytest.warns(RuntimeWarning, match="degraded"):
                bounds = model.bounds(
                    TARGETS, options,
                    progress=lambda partial, done: partials.append(as_pairs(partial)),
                )
            assert as_pairs(bounds) == golden
            assert executor.degraded_chunks >= 1
            assert executor.degraded_to in ("process", "serial")
            # Streamed/refined partial lower bounds never move backwards.
            for target_index in range(len(TARGETS)):
                lowers = [p[target_index][0] for p in partials]
                lowers.append(bounds[target_index].lower)
                assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
        finally:
            model.close()

    def test_all_workers_lost_batch_rides_full_ladder(
        self, serial_bounds, monkeypatch
    ):
        """Acceptance scenario: the socket backend is *fully* lost.

        Every spawned worker inherits a plan that kills it on its first
        job, so the queue goes workerless mid-query; after ``io_timeout``
        of reconnect grace the executor walks the ladder and completes the
        batch on the local process pool (or serial), bit-identical.
        """
        monkeypatch.setenv(faults.ENV_VAR, "seed=8;worker.job:die@1")
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(
                executor="socket", workers=2, chunk_size=1,
                io_timeout=1.0, job_timeout=10.0, job_retries=1,
            )
            with pytest.warns(RuntimeWarning, match="degraded"):
                bounds = model.bounds(TARGETS, options)
            assert as_pairs(bounds) == serial_bounds
            executor = model._executors[options.executor_key()]
            assert executor.degraded_chunks >= 1
            assert executor.degraded_to in ("process", "serial")
        finally:
            model.close()

    def test_suppressed_heartbeats_reap_wedged_worker_fast(self):
        # Job timeout is a generous 30 s, but the worker's heartbeats are
        # all dropped — liveness reaping fires after ~3 missed beats, so a
        # no-retry job fails in well under the job timeout.
        with WorkQueueServer(job_timeout=30.0) as queue:
            queue.spawn_local_workers(
                1, faults="seed=9;worker.send.heartbeat:drop@*",
                heartbeat_interval=0.2,
            )
            assert queue.wait_for_workers(1, timeout=30)
            start = time.monotonic()
            future = queue.submit_sleep(10.0, retries=0)
            with pytest.raises(JobRetriesExhausted, match="stopped heartbeating"):
                future.result(timeout=30)
            assert time.monotonic() - start < 5.0  # not the 30 s timeout
            assert queue.stats()["reaped"] >= 1


# ---------------------------------------------------------------------------
# Transport-layer chaos (scenarios 10–11)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestTransportChaos:
    def test_publish_failure_degrades_to_inline_table_images_bit_identical(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(executor="process", workers=2, chunk_size=1)
            with faults.injected("seed=10;transport.publish:fail@*"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the degradation notice
                    bounds = model.bounds(TARGETS, options)
            assert as_pairs(bounds) == serial_bounds
            assert model._executors[options.executor_key()]._arena_degraded
        finally:
            model.close()

    def test_midstream_path_explosion_surfaces(self):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(
                executor="thread", workers=2, stream=True,
                stream_cache_budget=None,
            )
            with faults.injected("seed=11;stream.paths:explode@2"):
                with pytest.raises(PathExplosionError, match="injected mid-stream"):
                    model.bounds(TARGETS, options)
        finally:
            model.close()


# ---------------------------------------------------------------------------
# Server-layer chaos (scenarios 12–14)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestServerChaos:
    def test_query_fault_is_typed_and_connection_survives(self, serial_bounds):
        with serve_in_background() as handle:
            with ServiceClient(handle.endpoint) as client:
                with faults.injected("seed=12;server.query:fail@1"):
                    with pytest.raises(ServiceFault, match="injected query failure"):
                        client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                    # Hit 2 does not fire: the same connection recovers.
                    reply = client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                assert as_pairs(reply.bounds) == serial_bounds
                assert client.ping()

    def test_backpressure_replies_busy_with_retry_after(self, serial_bounds):
        with serve_in_background(max_inflight_queries=1) as handle:
            with faults.injected("seed=13;server.query:delay(2.0)@1"):
                slow_reply = []

                def slow_query():
                    with ServiceClient(handle.endpoint) as tenant:
                        slow_reply.append(
                            tenant.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                        )

                thread = threading.Thread(target=slow_query)
                thread.start()
                try:
                    with ServiceClient(handle.endpoint) as client:
                        # Wait until the delayed query owns the single slot.
                        deadline = time.monotonic() + 10
                        while time.monotonic() < deadline:
                            if client.stats().get("inflight", 0) >= 1:
                                break
                            time.sleep(0.01)
                        with pytest.raises(ServerBusy) as excinfo:
                            client.bounds(BRANCHY_SRC, [(0.0, 1.0)])
                        assert excinfo.value.retry_after == 0.25
                        thread.join(timeout=60)
                        # Slot released: the rejected query now succeeds.
                        retry = client.bounds(BRANCHY_SRC, [(0.0, 1.0)])
                        assert len(retry.bounds) == 1
                        assert client.stats()["rejected"] >= 1
                finally:
                    thread.join(timeout=60)
            assert slow_reply and as_pairs(slow_reply[0].bounds) == serial_bounds

    def test_deadline_exceeded_is_typed_and_isolated(self, serial_bounds):
        with serve_in_background() as handle:
            with ServiceClient(handle.endpoint) as client:
                with pytest.raises(DeadlineExceeded, match="deadline"):
                    client.bounds(
                        BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)], deadline=1e-6
                    )
                # The same query *without* the hopeless deadline is served
                # fresh — deadline participates in the result-cache key, so
                # the abandoned run cannot poison it.
                reply = client.bounds(
                    BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)], deadline=120.0
                )
                assert as_pairs(reply.bounds) == serial_bounds
                assert client.ping()
