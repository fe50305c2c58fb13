"""Multi-session scheduling service: protocol, manager, server, client, CLI.

The service contract under test, layer by layer:

* **Protocol** — bare job lines keep the exact ``repro serve`` schema and
  error type; control messages are versioned, validated and answered by one
  terminator line each; untagged decision lines are byte-identical to the
  stdio serve wire format.
* **Manager** — named-session lifecycle (open/closed/failed), all-or-nothing
  bounded-queue backpressure, periodic checkpointing with atomic persistence,
  crash recovery by deterministic replay, and live export/restore migration.
* **Server/client** — many concurrent sessions over loopback TCP finalize
  byte-identically to the batch ``repro.solve()``; killed-mid-stream clients
  make shutdown drain the abandoned session, flush its summary, and exit
  nonzero (the clean-shutdown contract).
* **Recovery property** — an arbitrary kill point during a scenario stream
  restores to a byte-identical final outcome across all dispatch modes
  (hypothesis).
* **CLI** — the stdio serve path (now a thin manager client) reproduces a
  pinned golden transcript byte-for-byte; ``--list-algorithms --streaming``
  filters; ``repro loadgen`` verifies and reports.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.exceptions import (
    ServiceError,
    ServiceProtocolError,
    SessionStateError,
    TraceSchemaError,
)
from repro.service.client import ServiceClient, percentile, run_loadgen
from repro.service.manager import SessionManager, snapshot_job_count
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decision_line,
    final_line,
    parse_request,
    response_line,
)
from repro.service.server import start_server_thread
from repro.service.session import open_session
from repro.simulation.engine import DISPATCH_MODES
from repro.solvers import solve
from repro.utils.serialization import canonical_json
from repro.workloads.scenarios import get_scenario

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_TRACE = DATA_DIR / "serve_golden_trace.ndjson"
GOLDEN_OUT = DATA_DIR / "serve_golden_out.ndjson"


#: Session options matching the pinned golden transcript.
GOLDEN_OPTS = {"algorithm": "rejection-flow", "machines": 2, "params": {"epsilon": 0.5}}


def _instance(n=24, machines=2, seed=7, scenario="multi-tenant-mix"):
    return get_scenario(scenario).instance(n, machines, seed, alpha=3.0)


def _jobs(n=24, machines=2, seed=7, scenario="multi-tenant-mix"):
    return list(_instance(n, machines, seed, scenario).jobs)


def _reference(n=24, machines=2, seed=7, scenario="multi-tenant-mix", dispatch=None):
    """The batch ``repro.solve()`` row every service path must reproduce."""
    instance = _instance(n, machines, seed, scenario)
    return solve(instance, "rejection-flow", dispatch=dispatch, epsilon=0.5).as_row()


def _strip(final_event: dict) -> dict:
    return {k: v for k, v in final_event.items() if k not in ("event", "session")}


# --------------------------------------------------------------------------------------
# Protocol
# --------------------------------------------------------------------------------------


class TestProtocol:
    def test_bare_job_line_is_backward_compatible_submit(self):
        request = parse_request('{"id": 0, "release": 0.0, "sizes": [1.0, 2.0]}', 3)
        assert request.bare and request.op == "submit"
        assert len(request.jobs) == 1 and request.jobs[0].id == 0
        assert request.lineno == 3

    def test_bad_bare_line_raises_trace_schema_error(self):
        with pytest.raises(TraceSchemaError):
            parse_request('{"id": 0, "release": "soon", "sizes": [1.0]}', 9)

    def test_non_object_line_raises_trace_schema_error(self):
        with pytest.raises(TraceSchemaError):
            parse_request("[1, 2, 3]")
        with pytest.raises(TraceSchemaError):
            parse_request("not json {")

    @pytest.mark.parametrize(
        "line",
        [
            '{"op": "frobnicate"}',
            '{"op": "hello", "v": 99}',
            '{"op": "poll"}',
            '{"op": "submit", "session": "s"}',
            '{"op": "submit", "session": "s", "job": {"id": 0}, "jobs": []}',
            '{"op": "submit", "session": "s", "jobs": {"id": 0}}',
            '{"op": "advance", "session": "s", "t": "soon"}',
            '{"op": "advance", "session": "s"}',
            '{"op": "restore", "session": "s"}',
            '{"op": "migrate", "session": "s", "target": "no-port"}',
            '{"op": "create", "session": "s", "params": [1]}',
        ],
    )
    def test_invalid_control_messages(self, line):
        with pytest.raises(ServiceProtocolError):
            parse_request(line, 5)

    def test_lineno_in_protocol_error(self):
        with pytest.raises(ServiceProtocolError, match="line 42"):
            parse_request('{"op": "nope"}', 42)

    def test_control_payload_excludes_envelope_keys(self):
        request = parse_request(
            '{"op": "create", "session": "s", "v": 1, "algorithm": "fcfs"}'
        )
        assert request.payload == {"algorithm": "fcfs"}
        assert request.session == "s" and not request.bare

    def test_submit_accepts_job_or_jobs(self):
        row = '{"id": 1, "release": 0.5, "sizes": [1.0]}'
        single = parse_request(f'{{"op": "submit", "session": "s", "job": {row}}}')
        many = parse_request(f'{{"op": "submit", "session": "s", "jobs": [{row}]}}')
        assert len(single.jobs) == len(many.jobs) == 1

    def test_untagged_decision_line_matches_stdio_wire_format(self):
        session = open_session("rejection-flow", 2, epsilon=0.5)
        session.submit_many(_jobs(6))
        events = session.poll()
        assert events
        for event in events:
            assert decision_line(event) == canonical_json({"event": "decision", **event.as_dict()})
            tagged = json.loads(decision_line(event, "tenant-a"))
            assert tagged["session"] == "tenant-a"

    def test_response_and_final_lines_are_canonical(self):
        assert response_line("hello", protocol=1) == '{"event":"hello","protocol":1}'
        row = json.loads(final_line({"objective_value": 1.5}, "t"))
        assert row == {"event": "final", "objective_value": 1.5, "session": "t"}


# --------------------------------------------------------------------------------------
# SessionManager
# --------------------------------------------------------------------------------------


class TestSessionManager:
    def test_lifecycle_and_batch_identity(self):
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("tenant")
        for job in _jobs():
            outcome = manager.submit("tenant", [job])
            assert outcome.accepted and outcome.count == 1
            manager.poll("tenant")
        row, _ = manager.close("tenant")
        assert canonical_json(row) == canonical_json(_reference())
        assert manager.get("tenant").state == "closed"
        assert manager.open_sessions() == [] and manager.unclean_sessions() == []

    def test_close_drops_the_session_and_freezes_its_replies(self):
        # A closed session must not pin its stepper state, job list, op log
        # and outcome for the server's lifetime; the ``sessions`` and
        # ``stats`` replies for it keep the values it had at close.
        manager = SessionManager(defaults=GOLDEN_OPTS, checkpoint_every=2)
        manager.create("t")
        manager.submit("t", _jobs())
        manager.poll("t")
        session = manager.get("t").session
        row, _ = manager.close("t")
        at_close = {
            "algorithm": session.algorithm,
            "dispatch": session.dispatch,
            "state": "closed",
            "submitted": session.num_submitted,
            "events": session.events_emitted,
            "time": session.time,
        }
        stats_at_close = session.stats()
        diagnostics_at_close = session.policy.diagnostics()
        dropped = weakref.ref(session)
        del session
        gc.collect()
        assert dropped() is None
        (listing,) = manager.sessions()
        assert {key: listing[key] for key in at_close} == at_close
        stats = manager.stats("t")
        assert {key: stats[key] for key in stats_at_close} == stats_at_close
        assert stats["state"] == "closed" and stats["finalized"]
        hosted = manager.get("t")
        assert hosted.final_row == row and hosted.checkpoint is None
        assert hosted.session.policy.diagnostics() == diagnostics_at_close
        with pytest.raises(SessionStateError):
            manager.poll("t")

    def test_backpressure_is_all_or_nothing(self):
        jobs = _jobs(12)
        manager = SessionManager(defaults=GOLDEN_OPTS, max_pending=5)
        manager.create("t")
        refused = manager.submit("t", jobs[:6])
        assert not refused.accepted and refused.pending == 0
        assert manager.get("t").session.num_submitted == 0  # nothing ingested
        accepted = manager.submit("t", jobs[:5])
        assert accepted.accepted and accepted.pending == 5
        assert not manager.submit("t", jobs[5:6]).accepted  # queue full
        manager.poll("t")  # draining resets the offer queue
        assert manager.submit("t", jobs[5:10]).accepted

    def test_names_are_unique_and_states_enforced(self):
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("a")
        with pytest.raises(SessionStateError):
            manager.create("a")
        with pytest.raises(SessionStateError):
            manager.poll("ghost")
        manager.close("a")
        with pytest.raises(SessionStateError):
            manager.submit("a", _jobs(2))  # closed, not open
        with pytest.raises(SessionStateError):
            manager.create("a")  # names are unique across the lifetime

    @pytest.mark.parametrize(
        "op", ["submit", "poll", "advance", "checkpoint", "export_session", "close"]
    )
    def test_closed_session_refuses_ops_that_need_the_session(self, op):
        # Only the frozen ``sessions``/``stats`` replies outlive close; every
        # other op is refused by state, never reaching the dropped session.
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("t")
        manager.submit("t", _jobs(4))
        manager.close("t")
        args = {"submit": (_jobs(2),), "advance": (5.0,)}.get(op, ())
        with pytest.raises(SessionStateError, match="'t' is closed, not open"):
            getattr(manager, op)("t", *args)
        assert manager.stats("t")["state"] == "closed" and "t" in manager

    def test_sessions_listing_rows(self):
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("b")
        manager.create("a")
        manager.submit("a", _jobs(4))
        rows = manager.sessions()
        assert [r["session"] for r in rows] == ["a", "b"]
        assert rows[0]["state"] == "open" and rows[0]["pending"] == 4
        assert rows[0]["algorithm"] == "rejection-flow"

    def test_drain_closes_everything_and_reports(self):
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("x")
        manager.create("y")
        manager.submit("x", _jobs(4))
        results = manager.drain()
        assert [name for name, _, _ in results] == ["x", "y"]
        assert all(row is not None and error is None for _, row, error in results)
        assert manager.open_sessions() == []

    def test_checkpoint_recover_is_byte_identical(self, tmp_path):
        jobs = _jobs(20)
        manager = SessionManager(
            defaults=GOLDEN_OPTS, checkpoint_every=1, checkpoint_dir=tmp_path
        )
        manager.create("t")
        crash_at = 11
        for job in jobs[:crash_at]:
            manager.submit("t", [job])
        # Crash: the manager object is gone; only the checkpoint dir survives.
        recovered = SessionManager.recover(tmp_path, defaults=GOLDEN_OPTS)
        assert "t" in recovered and recovered.get("t").state == "open"
        done = snapshot_job_count(recovered.get("t").checkpoint)
        assert done == crash_at  # checkpoint_every=1 persisted every submit
        for job in jobs[done:]:
            recovered.submit("t", [job])
        row, _ = recovered.close("t")
        assert canonical_json(row) == canonical_json(_reference(20))
        # Closing removed the checkpoint file.
        assert list(Path(tmp_path).glob("*.json")) == []

    def test_export_import_migration_is_byte_identical(self):
        jobs = _jobs(18)
        source = SessionManager(defaults=GOLDEN_OPTS)
        source.create("mover")
        for job in jobs[:9]:
            source.submit("mover", [job])
            source.poll("mover")
        snapshot = source.export_session("mover")
        assert "mover" not in source  # released, not finalized
        target = SessionManager(defaults=GOLDEN_OPTS)
        target.restore("mover", snapshot)
        for job in jobs[9:]:
            target.submit("mover", [job])
            target.poll("mover")
        row, _ = target.close("mover")
        assert canonical_json(row) == canonical_json(_reference(18))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServiceError):
            SessionManager(max_pending=0)
        with pytest.raises(ServiceError):
            SessionManager(checkpoint_every=0)
        manager = SessionManager(defaults=GOLDEN_OPTS)
        with pytest.raises(ServiceError):
            manager.create("t", max_pending=-1)


# --------------------------------------------------------------------------------------
# Kill-point recovery property (arbitrary crash, all dispatch modes)
# --------------------------------------------------------------------------------------


_KILL_N = 16
_KILL_REFERENCE = {
    dispatch: canonical_json(
        _reference(_KILL_N, scenario="flash-crowd", dispatch=dispatch)
    )
    for dispatch in DISPATCH_MODES
}


@settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kill_point=st.integers(min_value=0, max_value=_KILL_N),
    dispatch=st.sampled_from(DISPATCH_MODES),
)
def test_arbitrary_kill_point_restores_byte_identical(kill_point, dispatch):
    """Crash after any op during a catalog stream; the restored session's
    final outcome is byte-identical to the uninterrupted run, per dispatch."""
    jobs = _jobs(_KILL_N, scenario="flash-crowd")
    opts = {**GOLDEN_OPTS, "dispatch": dispatch}
    manager = SessionManager(defaults=opts, checkpoint_every=1)
    manager.create("t")
    for index, job in enumerate(jobs[:kill_point]):
        manager.submit("t", [job])
        if index % 3 == 2:  # interleave mid-stream polls with pure submits
            manager.poll("t")
    checkpoint = manager.get("t").checkpoint  # the last periodic snapshot
    if checkpoint is None:  # crashed before the first op: start from scratch
        checkpoint = manager.get("t").session.snapshot()
    recovered = SessionManager(defaults=opts)
    recovered.restore("t", checkpoint)
    for job in jobs[snapshot_job_count(checkpoint):]:
        recovered.submit("t", [job])
    row, _ = recovered.close("t")
    assert canonical_json(row) == _KILL_REFERENCE[dispatch]


# --------------------------------------------------------------------------------------
# Server + client over loopback TCP
# --------------------------------------------------------------------------------------


@pytest.fixture()
def server():
    handle = start_server_thread(defaults=GOLDEN_OPTS)
    try:
        yield handle
    finally:
        if handle.server.exit_code is None:
            handle.stop()


class TestServer:
    def test_hello_and_sessions(self, server):
        with ServiceClient(server.host, server.port) as client:
            hello = client.hello()
            assert hello["protocol"] == PROTOCOL_VERSION
            assert "rejection-flow" in hello["algorithms"]
            client.create("t1")
            rows = client.sessions()
            assert [r["session"] for r in rows] == ["t1"]

    def test_session_lifecycle_matches_batch(self, server):
        jobs = _jobs()
        with ServiceClient(server.host, server.port) as client:
            client.create("tenant", algorithm="rejection-flow", machines=2,
                          params={"epsilon": 0.5})
            for offset in range(0, len(jobs), 5):
                reply = client.submit(
                    "tenant", [j.to_dict() for j in jobs[offset : offset + 5]]
                )
                assert reply["event"] == "accepted"
                client.poll("tenant")
            final = client.close_session("tenant")
            assert canonical_json(_strip(final.event)) == canonical_json(_reference())
            assert final.event["session"] == "tenant"

    def test_decisions_are_tagged_with_session(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.create("tagged")
            client.submit("tagged", [j.to_dict() for j in _jobs(6)])
            polled = client.poll("tagged")
            assert polled.decisions
            assert all(d["session"] == "tagged" for d in polled.decisions)

    def test_backpressure_throttles_over_the_wire(self, server):
        jobs = [j.to_dict() for j in _jobs(12)]
        with ServiceClient(server.host, server.port) as client:
            client.create("slow", max_pending=4)
            reply = client.submit("slow", jobs[:5])
            assert reply["event"] == "throttled" and reply["max_pending"] == 4
            assert client.submit("slow", jobs[:4])["event"] == "accepted"
            assert client.submit("slow", jobs[4:5])["event"] == "throttled"
            client.poll("slow")  # drain
            assert client.submit("slow", jobs[4:8])["event"] == "accepted"

    def test_errors_surface_as_service_errors(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ServiceError, match="no session named"):
                client.poll("ghost")
            client.create("dup")
            with pytest.raises(ServiceError, match="unique"):
                client.create("dup")
            with pytest.raises(ServiceError, match="does not support"):
                client.create("batch-only", algorithm="yds")

    def test_bare_lines_reproduce_the_stdio_golden_transcript(self, server):
        """A connection speaking only bare job lines gets byte-identical
        behaviour to `repro serve` (untagged decisions, final at EOF)."""
        expected = GOLDEN_OUT.read_text(encoding="utf-8")
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(GOLDEN_TRACE.read_bytes())
            sock.shutdown(socket.SHUT_WR)  # EOF: the stdio end-of-stream
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        assert received.decode("utf-8") == expected

    def test_snapshot_restore_round_trip_over_the_wire(self, server):
        jobs = _jobs(14)
        with ServiceClient(server.host, server.port) as client:
            client.create("snap")
            client.submit("snap", [j.to_dict() for j in jobs[:7]])
            client.poll("snap")
            snapshot = client.snapshot("snap")
            restored = client.restore("snap-copy", snapshot)
            assert restored["restored"] and restored["submitted"] == 7
            for name in ("snap", "snap-copy"):
                client.submit(name, [j.to_dict() for j in jobs[7:]])
                final = client.close_session(name)
                assert canonical_json(_strip(final.event)) == canonical_json(
                    _reference(14)
                )

    def test_migrate_moves_a_live_session_between_servers(self, server):
        jobs = _jobs(16)
        target = start_server_thread(defaults=GOLDEN_OPTS)
        try:
            with ServiceClient(server.host, server.port) as client:
                client.create("mover")
                client.submit("mover", [j.to_dict() for j in jobs[:8]])
                client.poll("mover")
                reply = client.migrate("mover", f"{target.host}:{target.port}")
                assert reply["event"] == "migrated"
                with pytest.raises(ServiceError, match="no session named"):
                    client.poll("mover")  # gone from the source
            with ServiceClient(target.host, target.port) as client:
                client.submit("mover", [j.to_dict() for j in jobs[8:]])
                final = client.close_session("mover")
                assert canonical_json(_strip(final.event)) == canonical_json(
                    _reference(16)
                )
        finally:
            target.stop()

    def test_migrate_to_dead_target_self_heals(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.create("stuck")
            client.submit("stuck", [j.to_dict() for j in _jobs(4)])
            # Grab a port with nothing listening on it.
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
            probe.close()
            with pytest.raises(ServiceError, match="restored locally"):
                client.migrate("stuck", f"127.0.0.1:{dead_port}")
            assert client.poll("stuck") is not None  # still hosted here

    def test_shutdown_op_exits_zero_when_all_sessions_closed(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.create("tidy")
            client.submit("tidy", [j.to_dict() for j in _jobs(4)])
            client.close_session("tidy")
            assert client.shutdown()["unclean"] == []
        assert server.stop() == 0

    def test_shutdown_with_abandoned_session_exits_nonzero(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.create("abandoned")
            client.submit("abandoned", [j.to_dict() for j in _jobs(4)])
        # The client vanished without closing its session; the drain still
        # flushes the session's summary but reports it unclean.
        assert server.stop() == 1
        out = server.server.out.getvalue()
        finals = [json.loads(line) for line in out.splitlines()
                  if '"event":"final"' in line]
        assert [f["session"] for f in finals] == ["abandoned"]
        shutdown_row = json.loads(out.splitlines()[-1])
        assert shutdown_row["unclean"] == ["abandoned"]


# --------------------------------------------------------------------------------------
# Client response framing against a one-shot loopback server
# --------------------------------------------------------------------------------------


@contextlib.contextmanager
def _one_shot_client(payload: bytes):
    """A client whose server answers its first line with ``payload``, then closes."""
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def answer_once() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                conn.sendall(payload)

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        try:
            with ServiceClient(*listener.getsockname(), timeout=10) as client:
                yield client
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestClientFraming:
    @pytest.mark.parametrize(
        ("payload", "cause"),
        [
            (b"not json\n", "not JSON"),
            (b'["hello"]\n', "JSON list, not an object"),
            (b'{"event":"hello"', "closed the connection mid-line"),
        ],
        ids=["non-json", "json-array", "cut-off"],
    )
    def test_bad_response_line_is_a_service_error(self, payload, cause):
        with _one_shot_client(payload) as client:
            with pytest.raises(ServiceError, match=cause):
                client.hello()

    def test_over_long_line_is_skipped_whole(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.MAX_LINE_BYTES", 64)
        long_row = canonical_json({"event": "hello", "pad": "x" * 194}).encode()
        assert len(long_row) == 220
        with _one_shot_client(long_row + b'\n{"event":"hello"}\n') as client:
            with pytest.raises(ServiceError, match="longer than 64 bytes"):
                client.hello()
            assert client.read_row() == {"event": "hello"}


# --------------------------------------------------------------------------------------
# Load generator
# --------------------------------------------------------------------------------------


class TestLoadgen:
    def test_percentile(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    # The 32-session case is the capacity acceptance: 32 tenants on one
    # server, every final summary byte-identical to the batch solve.
    @pytest.mark.parametrize(
        "sessions, jobs, machines, chunk_size",
        [(6, 40, 2, 8), (32, 60, 4, 32)],
        ids=["6-sessions", "32-sessions"],
    )
    def test_concurrent_sessions_all_verify_byte_identical(
        self, server, sessions, jobs, machines, chunk_size
    ):
        report = run_loadgen(
            server.host, server.port, sessions=sessions, jobs=jobs, machines=machines,
            params={"epsilon": 0.5}, chunk_size=chunk_size, verify=True,
        )
        assert len(report.sessions) == sessions
        assert report.verified == sessions
        assert report.total_jobs == sessions * jobs
        assert report.total_throttled == 0
        assert all(r.matches_batch for r in report.sessions)
        row = report.as_dict()
        assert row["verified"] == sessions and len(row["per_session"]) == sessions

    def test_loadgen_rejects_bad_parameters(self, server):
        with pytest.raises(ServiceError):
            run_loadgen(server.host, server.port, sessions=0)
        with pytest.raises(ServiceError):
            run_loadgen(server.host, server.port, chunk_size=0)

    def test_oversized_chunk_fails_instead_of_spinning(self):
        # A chunk larger than max_pending can never be accepted; the worker
        # must error out rather than retry the throttled submit forever.
        with start_server_thread(defaults=GOLDEN_OPTS, max_pending=2) as handle:
            with pytest.raises(ServiceError, match="sessions failed"):
                run_loadgen(
                    handle.host, handle.port, sessions=1, jobs=8, machines=2,
                    params={"epsilon": 0.5}, chunk_size=8,
                )


# --------------------------------------------------------------------------------------
# E15 experiment
# --------------------------------------------------------------------------------------


class TestE15:
    def test_e15_runs_and_verifies(self):
        from repro.experiments import run_experiment

        result = run_experiment(
            "E15", session_counts=(1, 2), jobs_per_session=20, num_machines=2
        )
        rows = result.raw["rows"]
        assert [r["sessions"] for r in rows] == [1, 2]
        assert rows[0]["verified"] == 1 and rows[1]["verified"] == 2
        assert rows[1]["jobs_total"] == 40
        # Wall-clock columns absent by default: artifacts stay byte-stable.
        assert "latency_p99_ms" not in rows[0]
        assert "throughput_jobs_per_s" not in rows[0]

    def test_e15_rejects_impossible_chunking(self):
        from repro.experiments import run_experiment

        with pytest.raises(ValueError, match="throttled forever"):
            run_experiment("E15", chunk_size=64, max_pending=8)

    def test_e15_registered_in_grids(self):
        from repro.campaigns.grids import GRIDS

        small_ids = {entry.experiment_id for entry in GRIDS["small"].entries}
        medium_ids = {entry.experiment_id for entry in GRIDS["medium"].entries}
        assert "E15" in small_ids and "E15" in medium_ids

    def test_e15_bench_registered(self):
        from repro.benchmarking import SPECS

        assert "e15_service" in SPECS and SPECS["e15_service"].quick


# --------------------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------------------


class TestCLI:
    def test_stdio_serve_reproduces_golden_transcript(self):
        out = io.StringIO()
        code = cli.main(
            ["serve", "--algorithm", "rejection-flow", "--machines", "2",
             "--param", "epsilon=0.5", "--trace", str(GOLDEN_TRACE)],
            out=out,
        )
        assert code == 0
        assert out.getvalue() == GOLDEN_OUT.read_text(encoding="utf-8")

    def test_list_algorithms_streaming_filter(self):
        out = io.StringIO()
        assert cli.main(["solve", "--list-algorithms", "--streaming"], out=out) == 0
        listing = out.getvalue()
        assert "streaming-capable" in listing
        assert "rejection-flow" in listing
        assert "yds" not in listing  # batch-only solvers filtered out

    def test_list_algorithms_unfiltered_includes_batch_solvers(self):
        out = io.StringIO()
        assert cli.main(["solve", "--list-algorithms"], out=out) == 0
        assert "yds" in out.getvalue()

    def test_streaming_flag_requires_list(self):
        err = io.StringIO()
        code = cli.main(["solve", "--streaming"], out=io.StringIO(), err=err)
        assert code == 2
        assert "--list-algorithms" in err.getvalue()

    def test_loadgen_cli_json_report(self):
        out = io.StringIO()
        code = cli.main(
            ["loadgen", "--sessions", "2", "--jobs", "20", "--machines", "2",
             "--param", "epsilon=0.5", "--chunk-size", "8", "--verify", "--json"],
            out=out,
        )
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["sessions"] == 2 and report["verified"] == 2

    def test_loadgen_cli_human_report(self):
        out = io.StringIO()
        code = cli.main(
            ["loadgen", "--sessions", "1", "--jobs", "10", "--machines", "2",
             "--param", "epsilon=0.5", "--scenario", "flash-crowd"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "throughput" in text and "flash-crowd" in text

    def test_bad_listen_address_is_a_clean_error(self):
        err = io.StringIO()
        code = cli.main(
            ["serve", "--listen", "nope:notaport"], out=io.StringIO(), err=err
        )
        assert code == 2 and "HOST:PORT" in err.getvalue()

    def test_recover_requires_checkpoint_dir(self):
        err = io.StringIO()
        code = cli.main(
            ["serve", "--listen", "127.0.0.1:0", "--recover"],
            out=io.StringIO(), err=err,
        )
        assert code == 2 and "--checkpoint-dir" in err.getvalue()


# --------------------------------------------------------------------------------------
# Shutdown semantics end to end (subprocess, real signals)
# --------------------------------------------------------------------------------------


def _spawn_server(*extra_args):
    """Start `repro serve --listen` as a real process; return (proc, host, port)."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
         "--algorithm", "rejection-flow", "--machines", "2",
         "--param", "epsilon=0.5", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=root,
    )
    listening = json.loads(proc.stdout.readline())
    assert listening["event"] == "listening"
    return proc, listening["host"], listening["port"]


class TestShutdownSemantics:
    def test_sigterm_drains_abandoned_session_and_exits_nonzero(self):
        proc, host, port = _spawn_server()
        try:
            client = ServiceClient(host, port, timeout=30)
            client.create("killed-mid-stream")
            client.submit("killed-mid-stream", [j.to_dict() for j in _jobs(8)])
            client.close()  # the client dies without closing its session
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1, (out, err)
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        finals = [row for row in lines if row.get("event") == "final"]
        assert [f["session"] for f in finals] == ["killed-mid-stream"]
        shutdown = lines[-1]
        assert shutdown["event"] == "shutdown"
        assert shutdown["reason"] == "SIGTERM"
        assert shutdown["unclean"] == ["killed-mid-stream"]

    def test_clean_client_shutdown_exits_zero(self):
        proc, host, port = _spawn_server()
        try:
            with ServiceClient(host, port, timeout=30) as client:
                client.create("tidy")
                client.submit("tidy", [j.to_dict() for j in _jobs(6)])
                final = client.close_session("tidy")
                assert final.event["event"] == "final"
                client.shutdown()
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (out, err)
        shutdown = json.loads(out.splitlines()[-1])
        assert shutdown["unclean"] == [] and shutdown["drained"] == 0

    def test_crash_recovery_across_real_processes(self, tmp_path):
        """Kill -9 a checkpointing server; a recovered one finishes the
        stream byte-identically to the uninterrupted batch run."""
        jobs = _jobs(20)
        reference = canonical_json(_reference(20))
        ckpt = tmp_path / "ckpt"
        proc, host, port = _spawn_server(
            "--checkpoint-dir", str(ckpt), "--checkpoint-every", "1"
        )
        try:
            client = ServiceClient(host, port, timeout=30)
            client.create("durable")
            for job in jobs[:12]:
                client.submit("durable", [job.to_dict()])
            client.close()
            proc.kill()  # SIGKILL: no drain, no flush — a real crash
            proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        proc2, host2, port2 = _spawn_server("--checkpoint-dir", str(ckpt), "--recover")
        try:
            with ServiceClient(host2, port2, timeout=30) as client:
                rows = client.sessions()
                assert [r["session"] for r in rows] == ["durable"]
                done = rows[0]["submitted"]
                assert done == 12  # checkpoint_every=1 persisted every submit
                client.submit("durable", [j.to_dict() for j in jobs[done:]])
                final = client.close_session("durable")
                assert canonical_json(_strip(final.event)) == reference
                client.shutdown()
            out, err = proc2.communicate(timeout=60)
            assert proc2.returncode == 0, (out, err)
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.communicate()
