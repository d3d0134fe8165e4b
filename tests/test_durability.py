"""Durability suite: crash-safe journal, checkpointed refinement, warm restarts.

The scenarios mirror the operational story of ``--state-dir``:

==== ==========================================================  ==========
#    scenario                                                    layer
==== ==========================================================  ==========
1    journal round-trips records + blobs bit-exactly             journal
2    torn tail / bit flip: replay keeps the intact prefix,       journal
     never raises, reopen truncates the damage
3    property test: random histories × random corruption →       journal
     replay never raises, recovers an exact prefix
4    queue WAL replay never resurrects completed jobs and        queue
     always requeues incomplete ones (property-tested)
5    work queue restarted from its journal re-registers          queue
     resources and requeues pending jobs with original ids
6    frame CRC: corrupt/truncate faults surface as typed         protocol
     errors; unflagged v1 frames still decode
7    refinement checkpoint round-trip: resume from round k       refine
     is bit-identical to the uninterrupted run
8    warm restart: repeat query served from the persistent       server
     result store with zero program-cache misses; corrupted
     entries are CRC-detected, dropped and recomputed
9    kill -9 after round 2 of a streamed refined query →         server
     client auto-resumes against the restarted server, final
     bounds bit-identical, ≤1 round repeated
10   SIGTERM drains and marks the journal clean                  server
==== ==========================================================  ==========

Fast journal/store/checkpoint classes run in tier-1; the subprocess
scenarios are ``slow``-marked and run in the ``tests-service`` CI job.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, intervals
from repro.analysis.config import AnalysisOptions
from repro.analysis.model import Model
from repro.analysis.refine import RefinementScheduler
from repro.lang import parse
from repro.service import (
    FrameCorrupted,
    Journal,
    ServiceClient,
    StateStore,
    WorkQueueServer,
    replay_queue_journal,
    serve_in_background,
)
from repro.service import journal as journal_module
from repro.service.journal import MAGIC, register_temp, _sweep_temps
from repro.service.protocol import ConnectionClosed, recv_frame, send_frame

BRANCHY_SRC = """
(let x (sample uniform 0 1)
  (let y (sample uniform 0 1)
    (if (- x y)
        (let z (score (+ 0.5 x)) (+ x y))
        (let z (score (- 1.5 x)) (* x y)))))
"""

TARGETS = (intervals.Interval(0.0, 0.5), intervals.Interval(0.5, 1.0))

REFINE_OPTIONS = {
    "refine": "gap",
    "refine_max_rounds": 4,
    "executor": "serial",
    "stream": False,
}


def as_pairs(bounds):
    return [(entry.lower, entry.upper) for entry in bounds]


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    faults.uninstall()
    yield
    faults.uninstall()


# ---------------------------------------------------------------------------
# 1–3: the journal itself
# ---------------------------------------------------------------------------
class TestJournal:
    def test_round_trip_records_and_blobs(self, tmp_path):
        path = tmp_path / "test.wal"
        journal = Journal(path)
        records = [
            ({"type": "enqueue", "job_id": 1, "weight": 0.1 + 0.2}, b""),
            ({"type": "resource", "key": "abc"}, b"\x00\xff" * 100),
            ({"type": "complete", "job_id": 1}, b""),
        ]
        for header, blob in records:
            journal.append(header, blob, sync=True)
        journal.close()
        replay = Journal.replay(path)
        assert not replay.torn
        assert replay.dropped_bytes == 0
        assert [(h, b) for h, b in replay] == records
        # Floats survive exactly (JSON repr round-trips doubles).
        assert replay.records[0][0]["weight"] == 0.1 + 0.2

    def test_torn_tail_keeps_prefix_and_reopen_truncates(self, tmp_path):
        path = tmp_path / "torn.wal"
        journal = Journal(path)
        journal.append({"type": "a", "n": 1}, sync=True)
        journal.append({"type": "b", "n": 2}, b"payload", sync=True)
        journal.close()
        # Chop the file mid-way through the last record.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 4])
        replay = Journal.replay(path)
        assert replay.torn
        assert [h["type"] for h, _ in replay] == ["a"]
        assert replay.dropped_bytes > 0
        # Reopening truncates the torn tail and appends continue cleanly.
        journal = Journal(path)
        journal.append({"type": "c", "n": 3}, sync=True)
        journal.close()
        replay = Journal.replay(path)
        assert not replay.torn
        assert [h["type"] for h, _ in replay] == ["a", "c"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_bit_flip_stops_replay_at_damage(self, tmp_path):
        path = tmp_path / "flip.wal"
        journal = Journal(path)
        for n in range(3):
            journal.append({"type": "rec", "n": n}, sync=True)
        journal.close()
        data = bytearray(path.read_bytes())
        # Flip a byte inside the second record's body.
        replay = Journal.replay(path)
        first_end = len(MAGIC) + (replay.valid_size - len(MAGIC)) // 3
        data[first_end + 20] ^= 0xFF
        path.write_bytes(bytes(data))
        replay = Journal.replay(path)
        assert replay.torn
        assert [h["n"] for h, _ in replay] == [0]

    def test_missing_and_foreign_files_replay_empty(self, tmp_path):
        assert len(Journal.replay(tmp_path / "nope.wal")) == 0
        bad = tmp_path / "foreign.bin"
        bad.write_bytes(b"not a journal at all")
        replay = Journal.replay(bad)
        assert replay.torn and len(replay) == 0

    def test_torn_fault_site_wedges_journal(self, tmp_path):
        path = tmp_path / "fault.wal"
        journal = Journal(path)
        with faults.injected("journal.write:torn@2"):
            journal.append({"type": "ok", "n": 1})
            journal.append({"type": "doomed", "n": 2})  # half reaches disk
            journal.append({"type": "after", "n": 3})  # dropped: wedged
        journal.close()
        replay = Journal.replay(path)
        assert replay.torn
        assert [h["type"] for h, _ in replay] == ["ok"]
        # The next incarnation truncates and runs normally.
        journal = Journal(path)
        journal.append({"type": "recovered"}, sync=True)
        journal.close()
        replay = Journal.replay(path)
        assert not replay.torn
        assert [h["type"] for h, _ in replay] == ["ok", "recovered"]

    def test_fail_fault_raises(self, tmp_path):
        journal = Journal(tmp_path / "raise.wal")
        with faults.injected("journal.write:fail@1"):
            with pytest.raises(faults.FaultInjected):
                journal.append({"type": "x"})
        journal.close()

    @settings(max_examples=60, deadline=None)
    @given(
        history=st.lists(
            st.tuples(
                st.dictionaries(
                    st.sampled_from(["type", "job_id", "n", "w"]),
                    st.one_of(
                        st.integers(-1000, 1000),
                        st.floats(allow_nan=False, allow_infinity=True),
                        st.text(max_size=8),
                    ),
                    max_size=3,
                ),
                st.binary(max_size=64),
            ),
            max_size=8,
        ),
        damage=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
            st.integers(0, 10_000),
        ),
    )
    def test_replay_never_raises_and_recovers_a_prefix(
        self, tmp_path_factory, history, damage
    ):
        path = tmp_path_factory.mktemp("wal") / "prop.wal"
        journal = Journal(path)
        for header, blob in history:
            journal.append(header, blob)
        journal.close()
        pristine = Journal.replay(path)
        assert [(h, b) for h, b in pristine] == list(history)
        data = bytearray(path.read_bytes())
        if isinstance(damage, tuple) and data:
            offset, flip = damage
            data[offset % len(data)] ^= flip
            path.write_bytes(bytes(data))
        elif isinstance(damage, int):
            path.write_bytes(bytes(data[: damage % (len(data) + 1)]))
        replay = Journal.replay(path)  # must never raise
        recovered = [(h, b) for h, b in replay]
        # Whatever survives is an exact prefix of what was appended —
        # records are accepted whole or not at all (a flipped byte that
        # leaves the CRC intact is impossible for a single-byte flip).
        if damage is None:
            assert recovered == list(history)
        else:
            assert recovered == list(history)[: len(recovered)]


class TestTempSweep:
    def test_registered_strays_are_swept(self, tmp_path):
        stray = tmp_path / "entry.bin.tmp"
        stray.write_bytes(b"half-written")
        register_temp(stray)
        _sweep_temps()
        assert not stray.exists()
        with journal_module._TEMPS_LOCK:
            assert str(stray) not in journal_module._LIVE_TEMPS


# ---------------------------------------------------------------------------
# 4–5: work-queue recovery
# ---------------------------------------------------------------------------
class TestQueueJournalReplay:
    def _journal(self, tmp_path, events):
        path = tmp_path / "queue.wal"
        journal = Journal(path)
        for header, blob in events:
            journal.append(header, blob)
        journal.close()
        return Journal.replay(path)

    def test_completed_jobs_are_not_requeued(self, tmp_path):
        recovery = replay_queue_journal(self._journal(tmp_path, [
            ({"type": "resource", "key": "tbl", "kind": "table"}, b"image"),
            ({"type": "enqueue", "job_id": 1, "spec": {"kind": "sleep"}}, b""),
            ({"type": "enqueue", "job_id": 2, "spec": {"kind": "sleep"}}, b""),
            ({"type": "dispatch", "job_id": 1, "attempt": 1}, b""),
            ({"type": "complete", "job_id": 1}, b""),
        ]))
        assert not recovery.clean
        assert recovery.completed == {1}
        assert [job["job_id"] for job in recovery.pending] == [2]
        assert recovery.resources["tbl"] == ("table", b"image")

    def test_clean_marker_is_positional(self, tmp_path):
        # A clean shutdown fails what was pending *then*; jobs enqueued by a
        # later incarnation of the same journal are still recovered.
        recovery = replay_queue_journal(self._journal(tmp_path, [
            ({"type": "enqueue", "job_id": 1, "spec": {}}, b""),
            ({"type": "clean"}, b""),
            ({"type": "enqueue", "job_id": 2, "spec": {}}, b""),
        ]))
        assert not recovery.clean  # the last record is not the marker
        assert 1 in recovery.failed
        assert [job["job_id"] for job in recovery.pending] == [2]
        recovery = replay_queue_journal(self._journal(tmp_path, [
            ({"type": "enqueue", "job_id": 1, "spec": {}}, b""),
            ({"type": "complete", "job_id": 1}, b""),
            ({"type": "clean"}, b""),
        ]))
        assert recovery.clean and not recovery.pending

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.sampled_from(["dispatch", "complete", "failed"])),
            max_size=12,
        )
    )
    def test_replay_partitions_jobs_exactly(self, tmp_path_factory, events):
        # Enqueue jobs 1..5, then apply a random event history; every job
        # must end up in exactly one of {pending, completed, failed}, and
        # completed/failed jobs are never resurrected.
        path = tmp_path_factory.mktemp("q") / "prop.wal"
        journal = Journal(path)
        for job_id in range(1, 6):
            journal.append({"type": "enqueue", "job_id": job_id, "spec": {}})
        for job_id, kind in events:
            header = {"type": kind, "job_id": job_id}
            if kind == "dispatch":
                header["attempt"] = 1
            journal.append(header)
        journal.close()
        recovery = replay_queue_journal(Journal.replay(path))
        pending_ids = {job["job_id"] for job in recovery.pending}
        assert pending_ids.isdisjoint(recovery.completed)
        assert pending_ids.isdisjoint(recovery.failed)
        done = {j for j, k in events if k == "complete"}
        failed = {j for j, k in events if k == "failed"} - done
        assert recovery.completed == done
        assert pending_ids == set(range(1, 6)) - done - recovery.failed
        for job_id in failed:
            assert job_id in recovery.failed

    def test_torn_journal_replays_without_raising(self, tmp_path):
        path = tmp_path / "torn.wal"
        journal = Journal(path)
        journal.append({"type": "enqueue", "job_id": 1, "spec": {}}, sync=True)
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data + b"\x00\x01garbage-tail")
        recovery = replay_queue_journal(Journal.replay(path))
        assert recovery.torn
        assert [job["job_id"] for job in recovery.pending] == [1]


class TestQueueRecovery:
    def test_restart_requeues_pending_jobs_with_original_ids(self, tmp_path):
        wal = str(tmp_path / "queue.wal")
        queue = WorkQueueServer(journal_path=wal)
        try:
            queue.add_resource("tbl", b"table-bytes", "table")
            futures = [queue.submit_sleep(0.01) for _ in range(3)]
        finally:
            # Simulate the crash: copy the journal *before* the close(),
            # which fails pending jobs and appends the clean marker.
            crashed = tmp_path / "crashed.wal"
            crashed.write_bytes(Path(wal).read_bytes())
            queue.close()
        del futures
        restarted = WorkQueueServer(journal_path=str(crashed))
        try:
            assert restarted.jobs_recovered == 3
            assert sorted(restarted.recovered_jobs) == [0, 1, 2]
            assert restarted.stats()["pending"] == 3
            assert restarted._resources["tbl"] == ("table", b"table-bytes")
            # Fresh submissions continue numbering past the recovered ids.
            future = restarted.submit_sleep(0.01)
            assert restarted.stats()["pending"] == 4
            del future
        finally:
            restarted.close()

    @pytest.mark.slow
    def test_recovered_jobs_complete_on_spawned_worker(self, tmp_path):
        wal = str(tmp_path / "queue.wal")
        queue = WorkQueueServer(journal_path=wal)
        try:
            queue.submit_sleep(0.01)
            queue.submit_sleep(0.01)
        finally:
            crashed = tmp_path / "crashed.wal"
            crashed.write_bytes(Path(wal).read_bytes())
            queue.close()
        restarted = WorkQueueServer(journal_path=str(crashed))
        try:
            assert restarted.jobs_recovered == 2
            restarted.spawn_local_workers(1)
            for future in restarted.recovered_jobs.values():
                future.result(timeout=60)
            # The completion counter (and its journal record) lands just
            # after the future resolves — poll briefly.
            deadline = time.time() + 10.0
            while restarted.stats()["completed"] < 2 and time.time() < deadline:
                time.sleep(0.02)
            assert restarted.stats()["completed"] == 2
        finally:
            restarted.close()
        # A third incarnation sees the completions: nothing is resurrected.
        final = WorkQueueServer(journal_path=str(crashed))
        try:
            assert final.jobs_recovered == 0
        finally:
            final.close()


# ---------------------------------------------------------------------------
# 6: frame CRC on the wire
# ---------------------------------------------------------------------------
class TestFrameCRC:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_corrupt_fault_raises_frame_corrupted(self):
        left, right = self._pair()
        try:
            with faults.injected("wire.test:corrupt@1"):
                send_frame(left, {"type": "bounds", "n": 7}, b"blob" * 10,
                           site="wire.test")
            with pytest.raises(FrameCorrupted):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_truncate_fault_raises_connection_closed(self):
        left, right = self._pair()
        try:
            with faults.injected("wire.test:truncate@1"):
                send_frame(left, {"type": "bounds", "n": 7}, b"blob" * 100,
                           site="wire.test")
            with pytest.raises(ConnectionClosed):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_v1_unflagged_frames_still_decode(self):
        # Backward tolerance: a peer speaking the pre-CRC frame format.
        left, right = self._pair()
        try:
            payload = json.dumps({"type": "ping"}).encode()
            left.sendall(struct.pack("!IQ", len(payload), 0) + payload)
            header, blob = recv_frame(right)
            assert header == {"type": "ping"} and blob == b""
        finally:
            left.close()
            right.close()

    def test_clean_frames_round_trip_with_crc(self):
        left, right = self._pair()
        try:
            send_frame(left, {"type": "result", "x": 0.1 + 0.2}, b"\x01\x02")
            header, blob = recv_frame(right)
            assert header["x"] == 0.1 + 0.2 and blob == b"\x01\x02"
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# 7: refinement checkpoints
# ---------------------------------------------------------------------------
class TestRefinementCheckpoint:
    def _scheduler(self, model, options):
        compiled = model.compile(options)
        return RefinementScheduler(compiled.execution, TARGETS, options)

    def test_resume_is_bit_identical(self):
        options = AnalysisOptions(refine="gap", refine_max_rounds=4)
        with Model(parse(BRANCHY_SRC)) as model:
            # Uninterrupted reference.
            reference = self._scheduler(model, options)
            full = as_pairs(reference.run())
            assert reference.rounds_run == 4
            # Interrupted at round 2 → checkpoint → restore → continue.
            interrupted = self._scheduler(model, options)
            interrupted.seed()
            interrupted.refine_round()
            interrupted.refine_round()
            blob = interrupted.to_bytes()
            compiled = model.compile(options)
            restored = RefinementScheduler.from_bytes(
                blob, compiled.execution, TARGETS, options
            )
            assert restored.rounds_run == 2
            assert as_pairs(restored.run()) == full
            assert restored.rounds_run == 4

    def test_checkpoint_rejects_mismatched_query(self):
        options = AnalysisOptions(refine="gap", refine_max_rounds=1)
        with Model(parse(BRANCHY_SRC)) as model:
            scheduler = self._scheduler(model, options)
            scheduler.seed()
            scheduler.refine_round()
            blob = scheduler.to_bytes()
            compiled = model.compile(options)
            with pytest.raises(ValueError):
                RefinementScheduler.from_bytes(
                    blob, compiled.execution,
                    (intervals.Interval(0.0, 9.0),), options,
                )
            state = json.loads(blob.decode())
            state["version"] = 99
            with pytest.raises(ValueError):
                RefinementScheduler.from_bytes(
                    json.dumps(state).encode(), compiled.execution,
                    TARGETS, options,
                )

    def test_checkpoint_before_seed_raises(self):
        options = AnalysisOptions(refine="gap")
        with Model(parse(BRANCHY_SRC)) as model:
            scheduler = self._scheduler(model, options)
            with pytest.raises(RuntimeError):
                scheduler.to_bytes()


# ---------------------------------------------------------------------------
# 8: warm restarts of the bounds server
# ---------------------------------------------------------------------------
class TestWarmRestart:
    def test_repeat_query_served_from_result_store(self, tmp_path):
        state = str(tmp_path / "state")
        with serve_in_background(state_dir=state) as handle:
            with ServiceClient(handle.endpoint) as client:
                cold = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                reference = as_pairs(cold.bounds)
                assert cold.result_cache == "miss"
            handle.stop_gracefully()
        # Restarted server: the repeat query must come from the persistent
        # result store without ever touching the program cache.
        with serve_in_background(state_dir=state) as handle:
            with ServiceClient(handle.endpoint) as client:
                warm = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                assert warm.result_cache == "hit"
                assert as_pairs(warm.bounds) == reference
                stats = client.stats()
                assert stats["cache"]["misses"] == 0
                assert stats["cache"]["hits"] == 0
                durability = stats["durability"]
                assert durability["result_store_hits"] == 1
                assert durability["journal_clean"] is True
                assert durability["journal_records_replayed"] >= 1

    def test_warm_program_load_skips_recompilation(self, tmp_path):
        state = str(tmp_path / "state")
        with serve_in_background(state_dir=state) as handle:
            with ServiceClient(handle.endpoint) as client:
                cold = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                reference_paths = cold.paths
            handle.stop_gracefully()
        with serve_in_background(state_dir=state) as handle:
            with ServiceClient(handle.endpoint) as client:
                # Different targets → result-store miss, but the compiled
                # program comes back from its stored path-table image.
                other = client.bounds(
                    BRANCHY_SRC, [(0.0, 0.25)], options=REFINE_OPTIONS
                )
                assert other.paths == reference_paths
                stats = client.stats()
                assert stats["durability"]["program_store_hits"] == 1

    def test_corrupted_result_entry_is_dropped_and_recomputed(self, tmp_path):
        state = tmp_path / "state"
        with serve_in_background(state_dir=str(state)) as handle:
            with ServiceClient(handle.endpoint) as client:
                cold = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                reference = as_pairs(cold.bounds)
            handle.stop_gracefully()
        for entry in (state / "results").glob("*.json"):
            data = bytearray(entry.read_bytes())
            data[len(data) // 2] ^= 0xFF
            entry.write_bytes(bytes(data))
        with serve_in_background(state_dir=str(state)) as handle:
            with ServiceClient(handle.endpoint) as client:
                recomputed = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                assert recomputed.result_cache == "miss"
                assert as_pairs(recomputed.bounds) == reference
                stats = client.stats()
                assert stats["durability"]["store"]["corrupt_dropped"] >= 1

    def test_corrupted_program_image_falls_back_to_recompile(self, tmp_path):
        state = tmp_path / "state"
        with serve_in_background(state_dir=str(state)) as handle:
            with ServiceClient(handle.endpoint) as client:
                cold = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                reference = as_pairs(cold.bounds)
            handle.stop_gracefully()
        for entry in (state / "programs").glob("*.bin"):
            data = bytearray(entry.read_bytes())
            data[len(data) // 2] ^= 0xFF
            entry.write_bytes(bytes(data))
        # Remove the stored result too, so the query must actually compile.
        for entry in (state / "results").glob("*.json"):
            entry.unlink()
        with serve_in_background(state_dir=str(state)) as handle:
            with ServiceClient(handle.endpoint) as client:
                recomputed = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                assert as_pairs(recomputed.bounds) == reference
                stats = client.stats()
                assert stats["durability"]["program_store_hits"] == 0
                assert stats["durability"]["store"]["corrupt_dropped"] >= 1

    def test_server_ack_crash_leaves_result_servable(self, tmp_path):
        # In-process stand-in for the crash-between-complete-and-ack window:
        # the result is persisted and journaled before the reply frame, so a
        # same-process re-issue after a *connection* loss is served from the
        # store (the subprocess suite covers the real os._exit).
        state = str(tmp_path / "state")
        with serve_in_background(state_dir=state) as handle:
            with ServiceClient(handle.endpoint) as client:
                first = client.bounds(
                    BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS, query_id="ack-1"
                )
            with ServiceClient(handle.endpoint) as client:
                again = client.bounds(
                    BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS, query_id="ack-1"
                )
                assert again.result_cache == "hit"
                assert as_pairs(again.bounds) == as_pairs(first.bounds)


# ---------------------------------------------------------------------------
# 9–10: whole-process crash, resume, graceful shutdown (subprocess)
# ---------------------------------------------------------------------------
def _start_server(state_dir, bind="127.0.0.1:0", fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if fault_plan:
        env[faults.ENV_VAR] = fault_plan
    else:
        env.pop(faults.ENV_VAR, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.server",
         "--bind", bind, "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if not match:
        proc.kill()
        raise AssertionError(f"server did not start: {line!r}")
    return proc, match.group(1)


@pytest.mark.slow
class TestCrashResume:
    def test_kill9_after_round2_resumes_bit_identically(self, tmp_path):
        options = dict(REFINE_OPTIONS)  # 4 rounds of gap refinement
        # Fault-free reference run (its own state dir).
        proc, endpoint = _start_server(tmp_path / "ref")
        try:
            with ServiceClient(endpoint, timeout=120) as client:
                reference = client.bounds(
                    BRANCHY_SRC, TARGETS, options=options, stream=True
                )
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        assert reference.refine_rounds >= 3
        reference_bounds = as_pairs(reference.bounds)

        # Crashing run: the server dies (os._exit) right after journaling
        # its second completed refinement round.
        state = tmp_path / "state"
        proc, endpoint = _start_server(
            state, fault_plan="seed=7;server.crash:die@2"
        )
        port = endpoint.rsplit(":", 1)[1]
        outcome = {}

        def query():
            try:
                with ServiceClient(endpoint, timeout=120) as client:
                    outcome["reply"] = client.bounds(
                        BRANCHY_SRC, TARGETS, options=options, stream=True,
                        query_id="crash-1", resume_retries=60,
                        resume_backoff=0.1,
                    )
            except Exception as error:  # surfaced in the main thread
                outcome["error"] = error

        thread = threading.Thread(target=query)
        thread.start()
        assert proc.wait(timeout=120) != 0  # the injected crash fired
        # Restart on the same port and state dir; the client auto-resumes.
        proc2, endpoint2 = _start_server(state, bind=f"127.0.0.1:{port}")
        try:
            thread.join(timeout=180)
            assert not thread.is_alive()
            assert "error" not in outcome, outcome.get("error")
            reply = outcome["reply"]
            assert as_pairs(reply.bounds) == reference_bounds
            assert reply.refine_rounds == reference.refine_rounds
            # The client holds every partial exactly once.
            assert len(reply.partials) == len(reference.partials)
            with ServiceClient(endpoint2, timeout=30) as client:
                durability = client.stats()["durability"]
            assert durability["rounds_resumed"] == 2
            # At most one round recomputed beyond the uninterrupted total.
            assert (
                durability["rounds_resumed"] + durability["rounds_recomputed"]
                <= reference.refine_rounds + 1
            )
            assert durability["partials_replayed"] >= 1
        finally:
            proc2.terminate()
            proc2.wait(timeout=30)

    def test_sigterm_drains_and_marks_journal_clean(self, tmp_path):
        state = tmp_path / "state"
        proc, endpoint = _start_server(state)
        try:
            with ServiceClient(endpoint, timeout=120) as client:
                client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        replay = Journal.replay(state / "server.wal")
        assert not replay.torn
        assert replay.records[-1][0]["type"] == "clean"
        # The restarted server reports the clean shutdown and serves the
        # persisted result without recomputing.
        proc, endpoint = _start_server(state)
        try:
            with ServiceClient(endpoint, timeout=60) as client:
                warm = client.bounds(BRANCHY_SRC, TARGETS, options=REFINE_OPTIONS)
                assert warm.result_cache == "hit"
                stats = client.stats()
                assert stats["durability"]["journal_clean"] is True
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_stats_cli_prints_durability_telemetry(self, tmp_path):
        proc, endpoint = _start_server(tmp_path / "state")
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
            env.pop(faults.ENV_VAR, None)
            printed = subprocess.run(
                [sys.executable, "-m", "repro.service.client",
                 "--stats", endpoint],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert printed.returncode == 0, printed.stderr
            stats = json.loads(printed.stdout)
            assert stats["durability"]["enabled"] is True
            assert "workers_reaped" in stats["executors"]
            assert "degraded_chunks" in stats["executors"]
        finally:
            proc.terminate()
            proc.wait(timeout=30)


# ---------------------------------------------------------------------------
# State-store unit coverage
# ---------------------------------------------------------------------------
class TestStateStore:
    def test_result_round_trip_and_corruption(self, tmp_path):
        store = StateStore(tmp_path)
        store.save_result("k1", {"bounds": [0.1 + 0.2], "type": "result"})
        assert store.load_result("k1")["bounds"] == [0.1 + 0.2]
        entry = tmp_path / "results" / "k1.json"
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
        assert store.load_result("k1") is None
        assert not entry.exists()  # dropped, not served
        assert store.stats()["corrupt_dropped"] == 1

    def test_program_round_trip(self, tmp_path):
        store = StateStore(tmp_path)
        store.save_program("hash1", b"IMAGEBYTES", {"truncated_paths": 2})
        meta, image = store.load_program("hash1")
        assert meta["truncated_paths"] == 2 and image == b"IMAGEBYTES"
        assert store.has_program("hash1")
        assert store.load_program("missing") is None

    def test_checkpoint_lifecycle(self, tmp_path):
        store = StateStore(tmp_path)
        store.save_checkpoint("q1", b"state-bytes")
        assert store.load_checkpoint("q1") == b"state-bytes"
        store.drop_checkpoint("q1")
        assert store.load_checkpoint("q1") is None
        store.drop_checkpoint("q1")  # idempotent

    def test_lru_prune_keeps_newest(self, tmp_path):
        store = StateStore(tmp_path, result_limit=3)
        for n in range(6):
            store.save_result(f"k{n}", {"n": n})
            now = time.time() - 100 + n  # strictly increasing, all in the past
            os.utime(tmp_path / "results" / f"k{n}.json", (now, now))
        survivors = sorted(p.stem for p in (tmp_path / "results").glob("*.json"))
        assert len(survivors) <= 4  # pruned on each save past the limit
        assert "k5" in survivors
