"""End-to-end tests of the bounds-as-a-service tier.

Covers the four layers of :mod:`repro.service`:

* the frame protocol and its exact float round-trip,
* the canonical program hash (term fingerprint + execution limits),
* the TCP work queue behind ``AnalysisOptions(executor="socket")`` —
  bit-identical bounds, worker-kill requeue, job timeout and bounded
  retry exhaustion,
* the asyncio bounds server — concurrent clients, shared program cache,
  streamed anytime partial bounds.

All network tests bind loopback ephemeral ports and spawn their worker
subprocesses with the current interpreter, so they run anywhere the
tier-1 suite runs.
"""

from __future__ import annotations

import math
import signal
import socket
import struct
import threading
import time
import zlib

import pytest

from helpers import simple_observe_model
from repro import faults, intervals
from repro.analysis.config import AnalysisOptions, parse_endpoint
from repro.analysis.engine import AnalysisReport, DenotationBounds
from repro.analysis.model import Model, program_hash
from repro.lang import parse
from repro.symbolic import ExecutionLimits, fingerprint_term
from repro.service import (
    JobRetriesExhausted,
    QueueClosed,
    ServiceClient,
    ServiceError,
    WorkerLost,
    WorkQueueServer,
    serve_in_background,
)
from repro.service.protocol import (
    bounds_from_wire,
    bounds_to_wire,
    hash_bytes,
    recv_frame,
    send_frame,
)

#: A two-branch model with enough paths to chunk (score keeps it weighted).
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
    model = Model(parse(BRANCHY_SRC))
    try:
        return as_pairs(model.bounds(TARGETS, AnalysisOptions()))
    finally:
        model.close()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_frame_round_trip(self):
        parent, child = socket.socketpair()
        try:
            blob = bytes(range(256)) * 3
            send_frame(parent, {"type": "job", "x": 1.5}, blob)
            header, received = recv_frame(child)
            assert header == {"type": "job", "x": 1.5}
            assert received == blob
        finally:
            parent.close()
            child.close()

    def test_bounds_wire_round_trip_is_exact(self):
        original = [
            DenotationBounds(
                target=intervals.Interval(0.1, 0.30000000000000004),
                lower=0.1365661622288767,
                upper=0.22933959973163995,
            ),
            DenotationBounds(
                target=intervals.Interval(-math.inf, math.inf),
                lower=0.0,
                upper=math.inf,
            ),
        ]
        import json

        decoded = bounds_from_wire(json.loads(json.dumps(bounds_to_wire(original))))
        for before, after in zip(original, decoded):
            assert after.lower == before.lower  # bit-identical, not approx
            assert after.upper == before.upper
            assert after.target == before.target

    def test_hash_bytes_is_content_addressed(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")
        assert hash_bytes(b"abc") != hash_bytes(b"abd")

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
        with pytest.raises(ValueError):
            parse_endpoint("no-port")
        with pytest.raises(ValueError):
            parse_endpoint("host:70000")


# ---------------------------------------------------------------------------
# Program hash
# ---------------------------------------------------------------------------

class TestProgramHash:
    def test_fingerprint_ignores_spelling(self):
        one = parse(BRANCHY_SRC)
        two = parse("   " + BRANCHY_SRC.replace("\n", "  "))
        assert fingerprint_term(one) == fingerprint_term(two)

    def test_fingerprint_distinguishes_constants(self):
        base = parse("(+ (sample uniform 0 1) 0.1)")
        other = parse("(+ (sample uniform 0 1) 0.2)")
        assert fingerprint_term(base) != fingerprint_term(other)

    def test_fingerprint_distinguishes_structure(self):
        assert fingerprint_term(parse("(+ 1 2)")) != fingerprint_term(parse("(- 1 2)"))
        assert fingerprint_term(parse("(lam x x)")) != fingerprint_term(parse("(lam y y)"))

    def test_program_hash_includes_limits(self):
        term = simple_observe_model()
        assert program_hash(term) == program_hash(term, ExecutionLimits())
        assert program_hash(term, ExecutionLimits(max_fixpoint_depth=3)) != program_hash(term)

    def test_compiled_program_hash_property(self):
        model = Model(simple_observe_model())
        try:
            compiled = model.compile()
            assert compiled.program_hash == program_hash(
                simple_observe_model(), compiled.limits
            )
        finally:
            model.close()


# ---------------------------------------------------------------------------
# Work queue
# ---------------------------------------------------------------------------

class TestWorkQueue:
    @pytest.mark.slow
    def test_sleep_jobs_complete(self):
        with WorkQueueServer() as queue:
            queue.spawn_local_workers(2)
            assert queue.wait_for_workers(2, timeout=30)
            futures = [queue.submit_sleep(0.02) for _ in range(6)]
            for future in futures:
                assert future.result(timeout=30) is None
            stats = queue.stats()
            assert stats["completed"] == 6
            assert stats["failed"] == 0

    @pytest.mark.slow
    def test_timeout_retries_then_exhausts(self):
        with WorkQueueServer() as queue:
            queue.spawn_local_workers(1)
            assert queue.wait_for_workers(1, timeout=30)
            future = queue.submit_sleep(1.0, timeout=0.2, retries=1)
            with pytest.raises(JobRetriesExhausted, match="2 attempts") as excinfo:
                future.result(timeout=30)
            # Typed taxonomy: retry exhaustion is an infrastructure loss,
            # so callers can branch on the WorkerLost base class.
            assert isinstance(excinfo.value, WorkerLost)
            assert queue.stats()["requeued"] == 1
            assert queue.stats()["failed"] == 1

    @pytest.mark.slow
    def test_worker_kill_requeues_to_surviving_worker(self):
        with WorkQueueServer() as queue:
            queue.spawn_local_workers(2)
            assert queue.wait_for_workers(2, timeout=30)
            # Two long jobs occupy both workers; two short ones queue behind.
            futures = [queue.submit_sleep(0.5) for _ in range(2)]
            futures += [queue.submit_sleep(0.01) for _ in range(2)]
            deadline = time.monotonic() + 10
            while queue.stats()["running"] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            victim = queue._spawned[0]
            victim.send_signal(signal.SIGKILL)
            # Every job still completes: the killed worker's in-flight job is
            # requeued and the survivor drains the queue.
            for future in futures:
                assert future.result(timeout=30) is None
            stats = queue.stats()
            assert stats["completed"] == 4
            assert stats["requeued"] >= 1
            assert stats["failed"] == 0

    def test_close_fails_pending_jobs(self):
        queue = WorkQueueServer()  # no workers at all
        future = queue.submit_sleep(0.01)
        queue.close()
        with pytest.raises(QueueClosed):
            future.result(timeout=5)
        with pytest.raises(QueueClosed):
            queue.submit_sleep(0.01)

    def test_resources_must_be_registered(self):
        with WorkQueueServer() as queue:
            with pytest.raises(KeyError):
                queue.submit_chunk(
                    index=0, table="missing", start=0, stop=1, context="missing"
                )


# ---------------------------------------------------------------------------
# Socket executor
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestSocketExecutor:
    def test_batch_bounds_bit_identical_to_serial(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(executor="socket", workers=2, chunk_size=1)
            assert as_pairs(model.bounds(TARGETS, options)) == serial_bounds
            executor = model._executors[options.executor_key()]
            first_resources = executor._queue.stats()["resources"]
            if not options.refine_enabled:
                # One table + one context (refinement mode registers one
                # extra content-addressed context per refinement level).
                assert first_resources == 2
            # Second query reuses every content-addressed resource.
            assert as_pairs(model.bounds(TARGETS, options)) == serial_bounds
            stats = executor._queue.stats()
            assert stats["failed"] == 0
            assert stats["resources"] == first_resources
        finally:
            model.close()

    def test_streamed_bounds_and_anytime_partial(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(
                executor="socket", workers=2, chunk_size=1, stream=True,
                stream_cache_budget=None,
            )
            partials = []
            bounds = model.bounds(
                TARGETS, options,
                progress=lambda partial, done: partials.append((done, as_pairs(partial))),
            )
            assert as_pairs(bounds) == serial_bounds
            if AnalysisOptions().refine_enabled:
                # Refinement mode adds one partial per refinement round on
                # top of the first-chunk partial.
                assert len(partials) >= 1
            else:
                assert len(partials) == 1  # the anytime hook fires exactly once
            done, partial = partials[0]
            assert 1 <= done <= 2
            for (lower, _upper), (full_lower, _full_upper) in zip(partial, serial_bounds):
                assert lower <= full_lower + 1e-12  # partial lowers are sound
        finally:
            model.close()

    def test_serial_streamed_progress_fires_too(self, serial_bounds):
        model = Model(parse(BRANCHY_SRC))
        try:
            options = AnalysisOptions(stream=True, stream_cache_budget=None)
            partials = []
            bounds = model.bounds(
                TARGETS, options,
                progress=lambda partial, done: partials.append(done),
            )
            assert as_pairs(bounds) == serial_bounds
            assert partials and partials[0] >= 1
        finally:
            model.close()

    def test_executor_key_separates_endpoints(self):
        base = AnalysisOptions(executor="socket", workers=2)
        other = base.with_updates(socket_endpoint="127.0.0.1:7777")
        assert base.executor_key() != other.executor_key()
        assert base.executor_key() != AnalysisOptions(executor="process", workers=2).executor_key()


# ---------------------------------------------------------------------------
# Bounds server
# ---------------------------------------------------------------------------

class TestBoundsServer:
    """The bounds server over the null store; the subclass below reruns every
    case over a disk store (``--state-dir``): both take the same flow."""

    durable = False

    @pytest.fixture
    def serve(self, tmp_path):
        def start(**kwargs):
            if self.durable:
                kwargs["state_dir"] = str(tmp_path / "state")
            return serve_in_background(**kwargs)

        return start

    def test_bounds_cache_and_concurrent_clients(self, serial_bounds, serve):
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                assert client.ping()
                first = client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                assert as_pairs(first.bounds) == serial_bounds  # exact over the wire
                assert first.cache == "miss"
                assert first.paths >= 2

                # A differently-spelled copy of the same program hits the
                # shared cache through the canonical program hash.
                respelled = "  " + BRANCHY_SRC.replace("\n", " ")
                second = client.bounds(respelled, [(0.0, 0.5), (0.5, 1.0)])
                assert second.cache == "hit"
                assert second.program_hash == first.program_hash
                assert as_pairs(second.bounds) == serial_bounds

                # Concurrent tenants: all served, all bit-identical, all hits.
                replies = []

                def query():
                    with ServiceClient(handle.endpoint) as tenant:
                        replies.append(tenant.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)]))

                threads = [threading.Thread(target=query) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert len(replies) == 4
                assert all(as_pairs(reply.bounds) == serial_bounds for reply in replies)
                assert all(reply.cache_hit for reply in replies)

                stats = client.stats()
                assert stats["cache"]["misses"] == 1
                assert stats["cache"]["hits"] == 5
                model_info = next(iter(stats["cache"]["models"].values()))
                assert model_info["program_cache_hits"] == 5
                assert model_info["program_cache_misses"] == 1

    def test_result_cache_serves_repeat_queries(self, serial_bounds, serve):
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                cold = client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                assert cold.result_cache == "miss"
                # The identical query again: no analyzer run, same floats.
                repeat = client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                assert repeat.result_cache == "hit"
                assert repeat.cache == "hit"
                assert as_pairs(repeat.bounds) == serial_bounds
                assert repeat.paths == cold.paths
                assert repeat.program_hash == cold.program_hash
                # Different targets are a different query: computed fresh.
                other = client.bounds(BRANCHY_SRC, [(0.0, 1.0)])
                assert other.result_cache == "miss"
                stats = client.stats()
                assert stats["results"]["entries"] == 2
                assert stats["results"]["hits"] == 1
                assert stats["results"]["misses"] == 2

    def test_result_cache_can_be_disabled(self, serial_bounds, serve):
        with serve(result_cache_limit=0) as handle:
            with ServiceClient(handle.endpoint) as client:
                client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                repeat = client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                assert repeat.result_cache == "miss"
                assert repeat.cache == "hit"  # the program cache still works
                assert as_pairs(repeat.bounds) == serial_bounds
                assert client.stats()["results"] == {
                    "entries": 0, "limit": 0, "hits": 0, "misses": 0,
                }

    def test_streamed_query_emits_partial_before_result(self, serial_bounds, serve):
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                seen = []
                reply = client.bounds(
                    BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)], stream=True,
                    options={"stream_cache_budget": None},
                    on_partial=lambda bounds, done: seen.append((done, as_pairs(bounds))),
                )
                assert as_pairs(reply.bounds) == serial_bounds
                assert [(done, as_pairs(bounds)) for bounds, done in reply.partials] == seen
                if AnalysisOptions().refine_enabled:
                    # One extra partial frame per refinement round.
                    assert len(seen) >= 1
                else:
                    assert len(seen) == 1
                done, partial = seen[0]
                assert done >= 1
                for (lower, _), (full_lower, _) in zip(partial, serial_bounds):
                    assert lower <= full_lower + 1e-12

    def test_error_frame_keeps_connection_usable(self, serve):
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                with pytest.raises(ServiceError, match="ParseError"):
                    client.bounds("(oops", [(0.0, 1.0)])
                with pytest.raises(ServiceError, match="unknown analysis options"):
                    client.bounds(BRANCHY_SRC, [(0.0, 1.0)], options={"bogus_knob": 1})
                assert client.ping()

    def test_free_variable_gets_a_parse_error_frame(self, serve):
        # ``<=`` is no operator, so the program applies a free variable: the
        # request is refused before symbolic execution with a ParseError
        # frame, and the connection stays usable.
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                with pytest.raises(
                    ServiceError, match=r"^ParseError: unbound variable\(s\): <=$"
                ) as caught:
                    client.bounds("(let x (sample) (<= x 0.5))", [(0.0, 1.0)])
                assert type(caught.value) is ServiceError and caught.value.code is None
                assert client.ping()

    def test_bad_option_values_get_error_frames(self, serve):
        # JSON accepts NaN; a tenant must not be able to hang the socket tier
        # with it.  A removed knob is an unknown option now.
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                with pytest.raises(ServiceError, match="io_timeout"):
                    client.bounds(BRANCHY_SRC, [(0.0, 1.0)], options={"io_timeout": math.nan})
                for name, value in [
                    ("columnar", False),
                    ("vectorized_boxes", False),
                    ("vectorized_scores", False),
                    ("vectorized_transcendentals", True),
                    ("prune_empty_paths", False),
                ]:
                    with pytest.raises(ServiceError, match="unknown analysis options"):
                        client.bounds(BRANCHY_SRC, [(0.0, 1.0)], options={name: value})
                    assert client.ping()

    def test_client_cannot_choose_the_work_queue_address(self, serve):
        # The socket work queue unpickles what arrives on its listener, so
        # only the server operator may say where it binds.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        options = {
            "executor": "socket", "workers": 2, "socket_endpoint": f"127.0.0.1:{port}",
        }
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                with pytest.raises(ServiceError, match=r"ProtocolError: .*socket_endpoint"):
                    client.bounds(BRANCHY_SRC, [(0.0, 1.0)], options=options)
                assert client.ping()
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_cache_info_counters_track_stream_tee(self):
        model = Model(simple_observe_model())
        try:
            info = model.cache_info()
            assert info["stream_tee_primes"] == 0
            model.bounds([intervals.Interval(0.0, 3.0)], AnalysisOptions(stream=True))
            info = model.cache_info()
            assert info["stream_tee_primes"] == 1
            assert info["entries"] == 1
            model.note_program_cache(hit=True)
            model.note_program_cache(hit=False)
            info = model.cache_info()
            assert info["program_cache_hits"] == 1
            assert info["program_cache_misses"] == 1
        finally:
            model.close()

    def test_refined_reply_matches_local_report(self, serve):
        # A refined query runs the engine's own refine loop on both store
        # kinds, so the reply carries the engine's path and time accounting.
        options = {"refine": "gap", "refine_max_rounds": 2, "executor": "serial"}
        model = Model(parse(BRANCHY_SRC))
        try:
            report = AnalysisReport()
            local = model.bounds(TARGETS, AnalysisOptions(**options), report=report)
        finally:
            model.close()
        with serve() as handle:
            with ServiceClient(handle.endpoint) as client:
                reply = client.bounds(BRANCHY_SRC, TARGETS, options=options)
        assert as_pairs(reply.bounds) == as_pairs(local)
        assert reply.paths == report.path_count
        assert reply.refine_rounds == report.refine_rounds
        assert reply.seconds > 0

    def test_every_partial_carries_seq(self, serve):
        options = {"refine": "gap", "refine_max_rounds": 2, "executor": "serial"}
        with serve() as handle:
            with socket.create_connection(parse_endpoint(handle.endpoint), timeout=60) as sock:
                send_frame(sock, {
                    "type": "bounds", "program": BRANCHY_SRC, "stream": True,
                    "targets": [[0.0, 0.5], [0.5, 1.0]], "options": options,
                })
                frames = []
                while not frames or frames[-1]["type"] != "result":
                    frames.append(recv_frame(sock)[0])
        result = frames.pop()
        assert all(frame["type"] == "partial" for frame in frames)
        # The first-paths preview is seq 1; round r's partial is seq r + 1.
        assert [frame["seq"] for frame in frames] == list(
            range(1, result["refine_rounds"] + 2)
        )

    def test_identical_inflight_query_is_coalesced(self, serial_bounds, serve):
        with serve() as handle:
            with faults.injected("seed=18;server.query:delay(1.0)@1"):
                first = []

                def slow_query():
                    with ServiceClient(handle.endpoint) as tenant:
                        first.append(tenant.bounds(BRANCHY_SRC, TARGETS))

                thread = threading.Thread(target=slow_query)
                thread.start()
                try:
                    with ServiceClient(handle.endpoint) as client:
                        deadline = time.monotonic() + 10
                        while client.stats()["inflight"] < 1:
                            assert time.monotonic() < deadline
                            time.sleep(0.01)
                        again = client.bounds(BRANCHY_SRC, TARGETS)
                        stats = client.stats()
                finally:
                    thread.join(timeout=60)
        # Answered from the held query's result: a second engine run would
        # have asked the model's compile cache again.
        assert again.result_cache == "hit"
        assert as_pairs(again.bounds) == as_pairs(first[0].bounds) == serial_bounds
        assert stats["queries"] == 2
        model_info = next(iter(stats["cache"]["models"].values()))
        assert model_info["compilations"] == 1
        assert model_info["hits"] == 0

    @pytest.mark.parametrize("payload", [b"{not json", b"\xff\xfe{}"])
    def test_malformed_header_gets_protocol_error_frame(self, payload, serve):
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        frame = struct.pack("!IQI", len(payload) | 0x80000000, 0, crc) + payload
        with serve() as handle:
            with socket.create_connection(parse_endpoint(handle.endpoint), timeout=30) as sock:
                sock.sendall(frame)
                reply, _blob = recv_frame(sock)
        assert reply["type"] == "error"
        assert reply["exc_type"] == "ProtocolError"


class TestBoundsServerOnDisk(TestBoundsServer):
    """Every bounds-server case again, over a ``--state-dir`` disk store."""

    durable = True

    def test_result_cache_can_be_disabled(self, serial_bounds, serve):
        # The disk store is a result tier of its own: with the memory LRU
        # off, a repeat is still answered from disk, not recomputed.
        with serve(result_cache_limit=0) as handle:
            with ServiceClient(handle.endpoint) as client:
                client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                repeat = client.bounds(BRANCHY_SRC, [(0.0, 0.5), (0.5, 1.0)])
                assert repeat.result_cache == "hit"
                assert as_pairs(repeat.bounds) == serial_bounds
                stats = client.stats()
                assert stats["results"] == {
                    "entries": 0, "limit": 0, "hits": 0, "misses": 0,
                }
                assert stats["durability"]["result_store_hits"] == 1


# ---------------------------------------------------------------------------
# Targets without a finite point
# ---------------------------------------------------------------------------

#: No real value lies in these targets, so every program's bounds are 0.
POINTLESS_TARGETS = (
    intervals.Interval.empty(),
    intervals.Interval(math.inf, math.inf),
    intervals.Interval(-math.inf, -math.inf),
)


@pytest.mark.parametrize("analyzers", [("linear", "box"), ("box",)], ids=["linear", "box"])
def test_targets_without_a_finite_point_get_zero_bounds(analyzers):
    options = AnalysisOptions(analyzers=analyzers, workers=1, executor="serial")
    local = Model(parse("(sample)"), options).bounds(POINTLESS_TARGETS)
    assert as_pairs(local) == [(0.0, 0.0)] * 3
    with serve_in_background() as handle:
        with ServiceClient(handle.endpoint) as client:
            served = client.bounds(
                "(sample)", POINTLESS_TARGETS, options={"analyzers": list(analyzers)}
            )
    assert as_pairs(served.bounds) == [(0.0, 0.0)] * 3
