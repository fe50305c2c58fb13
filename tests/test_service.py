"""Multi-session scheduling service: protocol, manager, server, client, CLI.

The service contract under test, layer by layer:

* **Protocol** — every line is a control message: versioned, checked
  against the fields its op reads (any other field is refused) and answered
  by one terminator line; job rows travel in ``submit``'s ``jobs`` array;
  untagged decision lines are byte-identical to the stdio serve wire format,
  and every decision line is the ``canonical_json`` of its row (a hypothesis
  differential, and raw socket lines of every streaming algorithm).
* **Manager** — named-session lifecycle (open/closed/failed), all-or-nothing
  bounded-queue backpressure, and client-held snapshots that ``restore`` on
  another manager by deterministic replay.
* **Server/client** — many concurrent sessions over loopback TCP finalize
  byte-identically to the batch ``repro.solve()``; every op refuses fields
  it does not read and hosts nothing, ``create`` refuses mistyped options,
  ``advance`` refuses NaN, ``restore`` names the malformed field of a
  snapshot; killed-mid-stream clients make
  shutdown drain the abandoned session, flush its summary, and exit nonzero
  (the clean-shutdown contract).
* **Restore property** — a snapshot taken at an arbitrary kill point during a
  scenario stream restores to a byte-identical final outcome across all
  dispatch modes (hypothesis); a snapshot the client kept outlives a
  SIGKILLed server process.
* **CLI** — the stdio serve path (now a thin manager client) reproduces a
  pinned golden transcript byte-for-byte; ``--list-algorithms --streaming``
  filters; ``repro loadgen`` verifies and reports; the retired server-side
  durability flags exit 2, and so do bad session defaults before
  ``serve --listen`` listens.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import math
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import dispatch_mode
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.exceptions import (
    ServiceError,
    ServiceProtocolError,
    SessionStateError,
    TraceSchemaError,
)
from repro.service import manager as manager_module
from repro.service.client import ServiceClient, percentile, run_loadgen
from repro.service.manager import MAX_MACHINES, MAX_PENDING, SessionManager
from repro.service.protocol import (
    OPS,
    PROTOCOL_VERSION,
    TERMINATORS,
    decision_line,
    final_line,
    parse_request,
    response_line,
)
from repro.service.server import ServiceServer, start_server_thread
from repro.service.session import open_session, streaming_algorithms
from repro.simulation.engine import DISPATCH_MODES
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.stepper import DecisionEvent
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

#: Characters a name, kind or reason may hold: anything, plus the ones JSON
#: escapes (quotes, backslashes, control characters), non-ASCII ones and lone
#: surrogates.
_WIRE_CHARS = (
    st.characters()
    | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600')
    | st.characters(categories=["Cs"])
)
_WIRE_TEXT = st.text(_WIRE_CHARS, max_size=12)
_DECISION_TEXT = st.sampled_from(
    ["dispatch", "start", "complete", "reject", "immediate", "rule1", "rule2", "weighted-rule"]
) | _WIRE_TEXT
#: Finite, infinite, NaN, signed-zero and subnormal floats, and ints past 2**63.
_PLAIN_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1e16, 1.5e-7]
)
_PLAIN_INTS = st.integers() | st.integers(min_value=2**63, max_value=2**70)
#: Numbers the template leaves to ``canonical_json``: bools and numpy scalars.
_FOREIGN_NUMBERS = (
    st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.floats(allow_nan=False).map(np.float64)
    | st.floats(width=32).map(np.float32)
)


def _decision_events(floats, ints):
    return st.builds(
        DecisionEvent,
        kind=_DECISION_TEXT,
        time=floats,
        job_id=ints,
        machine=st.none() | ints,
        speed=st.none() | floats,
        reason=st.none() | _DECISION_TEXT,
    )


_DECISION_EVENTS = _decision_events(_PLAIN_FLOATS, _PLAIN_INTS) | _decision_events(
    _PLAIN_FLOATS | st.integers() | _FOREIGN_NUMBERS, _PLAIN_INTS | _FOREIGN_NUMBERS
)


#: A 401-digit JSON int, past float range; a job row whose release is one;
#: and a line holding an int past Python's 4,300-digit limit.
_PAST_FLOAT = "1" + "0" * 400
_PAST_FLOAT_ROW = '{"id": 0, "release": %s, "sizes": [1.0, 2.0]}' % _PAST_FLOAT
_PAST_DIGIT_LIMIT_LINE = '{"id": 0, "release": 0.0, "sizes": [%s]}' % ("9" * 5000)
#: Arrays and objects nested past the recursion limit: json.loads raises
#: RecursionError, not a ValueError.
_NESTED_LINE = "[" * 100_000
_NESTED_OBJECT_LINE = '{"a":' * 100_000


class TestProtocol:
    def test_job_line_without_op_is_a_protocol_error(self):
        with pytest.raises(ServiceProtocolError, match="line 3: line has no 'op' field"):
            parse_request('{"id": 0, "release": 0.0, "sizes": [1.0, 2.0]}', 3)

    def test_bad_job_row_raises_trace_schema_error(self):
        with pytest.raises(TraceSchemaError, match="line 9: field 'release'"):
            parse_request(
                '{"op": "submit", "session": "s", "jobs": '
                '[{"id": 0, "release": "soon", "sizes": [1.0]}]}',
                9,
            )

    def test_non_object_line_is_a_protocol_error(self):
        with pytest.raises(ServiceProtocolError):
            parse_request("[1, 2, 3]")
        with pytest.raises(ServiceProtocolError):
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
            '{"op": "advance", "session": "s", "t": NaN}',
            '{"op": "create", "session": "s", "foo": 1}',
            '{"op": "create", "session": "s", "checkpoint_every": 2}',
            '{"op": "create", "session": "s", "alpha": "x"}',
            '{"op": "create", "session": "s", "alpha": true}',
            '{"op": "create", "session": "s", "max_pending": "x"}',
            '{"op": "create", "session": "s", "max_pending": true}',
            '{"op": "create", "session": "s", "max_pending": 2.5}',
            '{"op": "create", "session": "s", "machines": 2.5}',
            '{"op": "create", "session": "s", "algorithm": ["fcfs"]}',
            '{"op": ["poll"], "session": "s"}',
            pytest.param('{"op": "advance", "session": "s", "t": %s}' % _PAST_FLOAT,
                         id="advance-t-past-float"),
            pytest.param('{"op": "create", "session": "s", "alpha": -%s}' % _PAST_FLOAT,
                         id="create-alpha-past-float"),
            # json.loads raises a plain ValueError here, not a JSONDecodeError.
            pytest.param(_PAST_DIGIT_LIMIT_LINE, id="int-past-digit-limit"),
        ],
    )
    def test_invalid_control_messages(self, line):
        with pytest.raises(ServiceProtocolError):
            parse_request(line, 5)

    @pytest.mark.parametrize(
        "line", [_NESTED_LINE, _NESTED_OBJECT_LINE], ids=["arrays", "objects"]
    )
    def test_nesting_past_the_recursion_limit_is_not_valid_json(self, line):
        with pytest.raises(ServiceProtocolError, match=r"^line 5: not valid JSON \(maximum"):
            parse_request(line, 5)

    @pytest.mark.parametrize("op", OPS)
    def test_every_op_refuses_a_field_it_does_not_read(self, op):
        line = {"op": op, "session": "s", "v": 1, **_OP_FIELDS.get(op, {})}
        assert parse_request(canonical_json(line)).op == op
        with pytest.raises(ServiceProtocolError, match=f"op '{op}' has unknown field 'bogus'"):
            parse_request(canonical_json({**line, "bogus": 1}))

    def test_create_accepts_every_option_and_null_defaults(self):
        options = {"algorithm": "fcfs", "machines": 3, "alpha": 2, "params": {}, "max_pending": 8}
        line = canonical_json({"op": "create", "session": "s", "v": 1, **options})
        assert parse_request(line).payload == options
        nulls = canonical_json({"op": "create", "session": "s", **dict.fromkeys(options)})
        assert parse_request(nulls).payload == dict.fromkeys(options)

    def test_create_takes_no_dispatch_mode(self):
        # The server process picks the mode (REPRO_DISPATCH), for every session.
        line = canonical_json({"op": "create", "session": "s", "v": 1, "dispatch": "scan"})
        with pytest.raises(
            ServiceProtocolError,
            match=r"^line 0: op 'create' has unknown field 'dispatch'; it reads "
            r"\['algorithm', 'alpha', 'machines', 'max_pending', 'params'\]",
        ):
            parse_request(line)

    def test_advance_to_infinity_is_legal(self):
        assert parse_request('{"op": "advance", "session": "s", "t": Infinity}').op == "advance"

    def test_lineno_in_protocol_error(self):
        with pytest.raises(ServiceProtocolError, match="line 42"):
            parse_request('{"op": "nope"}', 42)

    def test_control_payload_excludes_envelope_keys(self):
        request = parse_request(
            '{"op": "create", "session": "s", "v": 1, "algorithm": "fcfs"}'
        )
        assert request.payload == {"algorithm": "fcfs"}
        assert request.session == "s"

    def test_submit_reads_jobs_not_a_single_job(self):
        row = '{"id": 1, "release": 0.5, "sizes": [1.0]}'
        with pytest.raises(ServiceProtocolError, match="unknown field 'job'"):
            parse_request(f'{{"op": "submit", "session": "s", "job": {row}}}')
        many = parse_request(f'{{"op": "submit", "session": "s", "jobs": [{row}]}}')
        assert len(many.jobs) == 1

    def test_untagged_decision_line_matches_stdio_wire_format(self):
        session = open_session("rejection-flow", 2, epsilon=0.5)
        session.submit_many(_jobs(6))
        events = session.poll()
        assert events
        for event in events:
            assert decision_line(event) == canonical_json({"event": "decision", **event.as_dict()})
            tagged = json.loads(decision_line(event, "tenant-a"))
            assert tagged["session"] == "tenant-a"

    @settings(max_examples=400, deadline=None)
    @given(event=_DECISION_EVENTS, session=st.none() | _WIRE_TEXT)
    def test_decision_line_is_the_canonical_json_of_its_row(self, event, session):
        # canonical_json is the spec; decision_line's template must agree
        # with it byte for byte, and fall back to it where it cannot.
        row = {"event": "decision", **event.as_dict()}
        if session is not None:
            row["session"] = session
        assert decision_line(event, session) == canonical_json(row)

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
        manager = SessionManager(defaults=GOLDEN_OPTS)
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
        assert hosted.final_row == row
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

    @pytest.mark.parametrize("op", ["submit", "poll", "advance", "snapshot", "close"])
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

    def test_snapshot_restore_moves_a_session_between_managers(self):
        jobs = _jobs(18)
        source = SessionManager(defaults=GOLDEN_OPTS)
        source.create("mover")
        for job in jobs[:9]:
            source.submit("mover", [job])
            source.poll("mover")
        snapshot = source.snapshot("mover")
        source.close("mover")  # the source server goes away
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
        manager = SessionManager(defaults=GOLDEN_OPTS)
        with pytest.raises(ServiceError):
            manager.create("t", max_pending=-1)
        with pytest.raises(ServiceError, match=f"machines must be at most {MAX_MACHINES}"):
            manager.create("t", machines=MAX_MACHINES + 1)
        with pytest.raises(ServiceError, match=f"machines must be at most {MAX_MACHINES}"):
            SessionManager(defaults={"machines": MAX_MACHINES + 1}).create("t")
        assert manager.sessions() == []

    def test_max_pending_has_a_ceiling(self):
        # A bound of 10**12 would turn backpressure off; each refusal names
        # the field and the limit, and hosts nothing.
        limit = f"max_pending must be at most {MAX_PENDING}, got {10**12}"
        with pytest.raises(ServiceError, match=limit):
            SessionManager(max_pending=10**12)
        manager = SessionManager(defaults=GOLDEN_OPTS)
        with pytest.raises(ServiceError, match=limit):
            manager.create("t", max_pending=10**12)
        source = SessionManager(defaults=GOLDEN_OPTS)
        source.create("s")
        with pytest.raises(ServiceError, match=limit):
            manager.restore("t", source.snapshot("s"), max_pending=10**12)
        assert manager.sessions() == []
        assert manager.create("t", max_pending=MAX_PENDING).max_pending == MAX_PENDING
        assert SessionManager(max_pending=MAX_PENDING).max_pending == MAX_PENDING

    @pytest.mark.parametrize("key", ["dispatch", "max_pending", "name", "bogus"])
    def test_defaults_refuse_a_key_they_do_not_read(self, key):
        # A leftover "dispatch" (the process picks the mode) or any other
        # key create does not read is refused, not silently ignored.
        with pytest.raises(
            ServiceError,
            match=rf"^unknown session default\(s\) \['{key}'\]; defaults set "
            r"\['algorithm', 'alpha', 'machines', 'params'\]$",
        ):
            SessionManager(defaults={**GOLDEN_OPTS, key: "scan"})

    def test_open_sessions_have_a_ceiling(self, monkeypatch):
        # Closed and failed sessions free their place; each refusal names the
        # limit, and neither create nor restore hosts anything past it.
        monkeypatch.setattr(manager_module, "MAX_OPEN_SESSIONS", 2)
        limit = "open sessions must be at most 2"
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("a")
        manager.create("b")
        snapshot = manager.snapshot("a")
        with pytest.raises(ServiceError, match=limit):
            manager.create("c")
        with pytest.raises(ServiceError, match=limit):
            manager.restore("c", snapshot)
        assert manager.open_sessions() == ["a", "b"] and len(manager) == 2
        manager.close("a")
        manager.restore("c", snapshot)
        manager.get("b").session.finalize = lambda: 1 / 0
        with pytest.raises(ZeroDivisionError):
            manager.close("b")
        assert manager.unclean_sessions() == ["b"]
        manager.create("d")
        assert manager.open_sessions() == ["c", "d"]
        with pytest.raises(ServiceError, match=limit):
            manager.create("e")


# --------------------------------------------------------------------------------------
# Kill-point restore property (arbitrary crash, all dispatch modes)
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
    """Snapshot at any point of a catalog stream and lose the server; the
    session restored elsewhere finishes byte-identical to the uninterrupted
    run, per dispatch."""
    jobs = _jobs(_KILL_N, scenario="flash-crowd")
    with dispatch_mode(dispatch):
        manager = SessionManager(defaults=GOLDEN_OPTS)
        manager.create("t")
        for index, job in enumerate(jobs[:kill_point]):
            manager.submit("t", [job])
            if index % 3 == 2:  # interleave mid-stream polls with pure submits
                manager.poll("t")
        snapshot = json.loads(canonical_json(manager.snapshot("t")))  # what the client kept
        del manager  # the crash
        recovered = SessionManager(defaults=GOLDEN_OPTS)
        recovered.restore("t", snapshot)
        for job in jobs[kill_point:]:
            recovered.submit("t", [job])
        assert recovered.stats("t")["dispatch"] == dispatch
        row, _ = recovered.close("t")
    assert canonical_json(row) == _KILL_REFERENCE[dispatch]


# --------------------------------------------------------------------------------------
# Server + client over loopback TCP
# --------------------------------------------------------------------------------------


def _good_snapshot() -> dict:
    """A session of the golden options after 4 jobs and one poll, as JSON data."""
    session = open_session("rejection-flow", 2, epsilon=0.5)
    session.submit_many(_jobs()[:4])
    session.poll()
    return json.loads(canonical_json(session.snapshot()))


_GOOD_SNAPSHOT = _good_snapshot()
assert [op["op"] for op in _GOOD_SNAPSHOT["ops"]] == ["submit_many", "advance"]

#: (field the error must name, mutation of a good snapshot).
_MALFORMED_SNAPSHOTS = [
    pytest.param("algorithm", lambda s: s.pop("algorithm"), id="no-algorithm"),
    pytest.param("machines", lambda s: s.pop("machines"), id="no-machines"),
    pytest.param("machines", lambda s: s.update(machines="x"), id="machines-string"),
    pytest.param("machines", lambda s: s["machines"][0].pop("id"), id="machine-no-id"),
    pytest.param("params", lambda s: s.pop("params"), id="no-params"),
    pytest.param("params", lambda s: s.update(params=[0.5]), id="params-array"),
    pytest.param("ops", lambda s: s.pop("ops"), id="no-ops"),
    pytest.param("ops", lambda s: s.update(ops={}), id="ops-object"),
    pytest.param("consumed", lambda s: s.update(consumed="x"), id="consumed-string"),
    pytest.param("consumed", lambda s: s.update(consumed=-7), id="consumed-negative"),
    pytest.param("consumed", lambda s: s.update(consumed=10000), id="consumed-past-emitted"),
    pytest.param("op", lambda s: s["ops"][0].pop("op"), id="no-op"),
    pytest.param("op", lambda s: s["ops"][0].update(op=3), id="op-number"),
    pytest.param("op", lambda s: s["ops"][0].update(op="frobnicate"), id="op-unknown"),
    pytest.param("jobs", lambda s: s["ops"][0].pop("jobs"), id="no-jobs"),
    pytest.param("jobs", lambda s: s["ops"][0].update(jobs={}), id="jobs-object"),
    pytest.param("id", lambda s: s["ops"][0]["jobs"][0].pop("id"), id="job-no-id"),
    pytest.param("release", lambda s: s["ops"][0]["jobs"][1].update(release="soon"),
                 id="job-release-string"),
    pytest.param("t", lambda s: s["ops"][1].pop("t"), id="no-t"),
    pytest.param("t", lambda s: s["ops"][1].update(t="x"), id="t-string"),
    pytest.param("t", lambda s: s["ops"][1].update(t=float("nan")), id="t-nan"),
    pytest.param("release", lambda s: s["ops"][0]["jobs"][1].update(release=10**400),
                 id="job-release-past-float"),
    pytest.param("t", lambda s: s["ops"][1].update(t=10**400), id="t-past-float"),
]


#: The fields an op requires, filled in validly.
_OP_FIELDS = {"submit": {"jobs": []}, "advance": {"t": 1.0}, "restore": {"snapshot": _GOOD_SNAPSHOT}}

#: (request, the field the refusal must name): every op with a field it does
#: not read, restore's dropped ``max_pending``, submit's retired single-job
#: alias and a job row without a control envelope.
_REFUSED_LINES = [
    pytest.param(
        {"op": op, "session": "s", **_OP_FIELDS.get(op, {}), "bogus": 1}, "bogus",
        id=f"{op}-bogus",
    )
    for op in OPS
] + [
    pytest.param(
        {"op": "restore", "session": "s", "snapshot": _GOOD_SNAPSHOT, "max_pending": 2},
        "max_pending", id="restore-max_pending",
    ),
    pytest.param(
        {"op": "submit", "session": "s", "job": _jobs(1)[0].to_dict()}, "job",
        id="submit-job",
    ),
    pytest.param(_jobs(1)[0].to_dict(), "op", id="job-row"),
]


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

    @pytest.mark.parametrize("dispatch", DISPATCH_MODES)
    @pytest.mark.parametrize("algorithm", streaming_algorithms())
    def test_decision_lines_are_canonical_on_the_wire(self, algorithm, dispatch):
        # The raw decision lines a plain socket reads are the canonical JSON
        # of the events the same submit/poll steps emit in-process, for every
        # streaming algorithm; the session name needs escaping.
        name = f'{algorithm} "{dispatch}" →'
        jobs = _jobs(16, scenario="flash-crowd")
        events, wire = [], []
        with (
            dispatch_mode(dispatch),
            start_server_thread() as handle,
            socket.create_connection((handle.host, handle.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):

            def request(op: str, **fields) -> None:
                line = canonical_json({"op": op, "session": name, **fields})
                sock.sendall(line.encode("ascii") + b"\n")
                while True:
                    raw = reader.readline().decode("ascii").rstrip("\n")
                    row = json.loads(raw)
                    assert row["event"] != "error", row
                    if row["event"] == "decision":
                        wire.append(raw)
                    elif row["event"] == TERMINATORS[op]:
                        return

            local = open_session(algorithm, 2)
            request("create", algorithm=algorithm, machines=2)
            for offset in range(0, len(jobs), 4):
                chunk = jobs[offset : offset + 4]
                request("submit", jobs=[job.to_dict() for job in chunk])
                request("poll")
                local.submit_many(chunk)
                events += local.poll()
            request("close")
        local.finalize()
        events += local.take_events()
        assert events
        assert wire == [
            canonical_json({"event": "decision", **event.as_dict(), "session": name})
            for event in events
        ]

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

    @pytest.mark.parametrize(("line", "field"), _REFUSED_LINES)
    def test_refused_request_hosts_nothing(self, server, line, field):
        # Each line names a field its op does not read (or is a job row with
        # no op at all): refused whole as a protocol error, nothing hosted,
        # and the connection keeps serving.
        with ServiceClient(server.host, server.port) as client:
            client.send_line(canonical_json(line))
            error = client.read_row()
            assert error["event"] == "error" and error["code"] == "protocol", error
            assert repr(field) in error["error"], error
            assert client.sessions() == []
            assert client.hello()["sessions"] == 0

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

    def test_restore_moves_a_live_session_between_servers(self, server):
        jobs = _jobs(16)
        target = start_server_thread(defaults=GOLDEN_OPTS)
        try:
            with ServiceClient(server.host, server.port) as client:
                client.create("mover")
                client.submit("mover", [j.to_dict() for j in jobs[:8]])
                client.poll("mover")
                snapshot = client.snapshot("mover")
                client.close_session("mover")
            with ServiceClient(target.host, target.port) as client:
                assert client.restore("mover", snapshot)["submitted"] == 8
                client.submit("mover", [j.to_dict() for j in jobs[8:]])
                final = client.close_session("mover")
                assert canonical_json(_strip(final.event)) == canonical_json(
                    _reference(16)
                )
        finally:
            target.stop()

    def test_migrate_is_an_unknown_op(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.create("stays")
            client.send_line(
                '{"op":"migrate","session":"stays","target":"127.0.0.1:1","v":1}'
            )
            error = client.read_row()
            assert error["event"] == "error" and error["code"] == "protocol"
            assert "unknown op 'migrate'" in error["error"]
            client.submit("stays", [j.to_dict() for j in _jobs(4)])
            assert client.close_session("stays").event["event"] == "final"

    def test_create_asking_for_checkpoints_hosts_nothing(self, server):
        # The client would otherwise believe the server keeps its session.
        with ServiceClient(server.host, server.port) as client:
            client.send_line('{"op":"create","session":"s","checkpoint_every":"x"}')
            error = client.read_row()
            assert error["event"] == "error" and error["code"] == "protocol"
            assert "'checkpoint_every'" in error["error"]
            assert client.sessions() == []

    def test_advance_to_nan_is_refused_and_the_session_finishes(self, server):
        jobs = [j.to_dict() for j in _jobs()]
        with ServiceClient(server.host, server.port) as client:
            client.create("t")
            client.submit("t", jobs[:4])
            client.send_line('{"op":"advance","session":"t","t":NaN}')
            error = client.read_row()
            assert error["event"] == "error" and error["code"] == "protocol"
            assert "NaN" in error["error"]
            snapshot = client.snapshot("t")
            assert snapshot["ops"] == [{"op": "submit_many", "jobs": jobs[:4]}]
            client.submit("t", jobs[4:])
            final = client.close_session("t")
            assert canonical_json(_strip(final.event)) == canonical_json(_reference())

    @pytest.mark.parametrize(("field", "mutate"), _MALFORMED_SNAPSHOTS)
    def test_malformed_restore_snapshot_is_attributed(self, server, field, mutate):
        snapshot = copy.deepcopy(_GOOD_SNAPSHOT)
        mutate(snapshot)
        line = canonical_json({"op": "restore", "session": "r", "snapshot": snapshot})
        with ServiceClient(server.host, server.port) as client:
            client.send_line(line)
            error = client.read_row()
            assert error["event"] == "error" and error["code"] == "session", error
            assert repr(field) in error["error"], error
            assert client.sessions() == []
            client.restore("r", _GOOD_SNAPSHOT)  # still serving; the name is free
            client.submit("r", [j.to_dict() for j in _jobs()[4:]])
            final = client.close_session("r")
            assert canonical_json(_strip(final.event)) == canonical_json(_reference())

    def test_oversized_numbers_get_one_attributed_error_each(self, server):
        # Ints past float range wherever a number enters, and a line past the
        # digit limit, all on one connection: each line is answered by exactly
        # one error naming what is wrong, and the connection keeps serving.
        job_past_float = copy.deepcopy(_GOOD_SNAPSHOT)
        job_past_float["ops"][0]["jobs"][1]["release"] = 10**400
        t_past_float = copy.deepcopy(_GOOD_SNAPSHOT)
        t_past_float["ops"][1]["t"] = 10**400
        lines = [
            ('{"op":"submit","session":"s","jobs":[%s]}' % _PAST_FLOAT_ROW,
             "protocol", "line 1: field 'release': expected a finite number"),
            (_PAST_DIGIT_LIMIT_LINE, "protocol", "line 2: not valid JSON"),
            ('{"op":"advance","session":"s","t":%s}' % _PAST_FLOAT,
             "protocol", "line 3: op 'advance' field 't'"),
            ('{"op":"create","session":"s","alpha":%s}' % _PAST_FLOAT,
             "protocol", "line 4: op 'create' field 'alpha'"),
            ('{"op":"create","session":"s","params":{"epsilon":%s}}' % _PAST_FLOAT,
             "session", "parameter 'epsilon'"),
            (canonical_json({"op": "restore", "session": "s", "snapshot": job_past_float}),
             "session", "ops[0]: jobs[1]: field 'release'"),
            (canonical_json({"op": "restore", "session": "s", "snapshot": t_past_float}),
             "session", "ops[1]: field 't'"),
        ]
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            for line, code, names in lines:
                sock.sendall(line.encode("ascii") + b"\n")
                row = json.loads(reader.readline())
                assert row["event"] == "error" and row["code"] == code, row
                assert names in row["error"], row
            sock.sendall(b'{"op":"hello"}\n')
            hello = json.loads(reader.readline())
            assert hello["event"] == "hello" and hello["sessions"] == 0, hello

    def test_nesting_past_the_recursion_limit_gets_one_attributed_error(self, server):
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.sendall(_NESTED_LINE.encode("ascii") + b"\n")
            row = json.loads(reader.readline())
            assert row["event"] == "error" and row["code"] == "protocol", row
            assert row["error"].startswith("line 1: not valid JSON"), row
            sock.sendall(b'{"op":"hello"}\n')
            hello = json.loads(reader.readline())
            assert hello["event"] == "hello" and hello["sessions"] == 0, hello

    def test_a_fleet_past_the_machine_ceiling_gets_one_attributed_error(self, server):
        # Building 200,000 machines would hold the event loop for over a
        # second and take 150 MiB; the refusal comes before any is built.
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.sendall(b'{"op":"create","session":"s","machines":200000}\n')
            row = json.loads(reader.readline())
            assert row["event"] == "error" and row["code"] == "session", row
            assert row["error"] == f"machines must be at most {MAX_MACHINES}, got 200000", row
            sock.sendall(b'{"op":"hello"}\n')
            hello = json.loads(reader.readline())
            assert hello["event"] == "hello" and hello["sessions"] == 0, hello

    def test_a_session_past_the_open_ceiling_gets_one_attributed_error(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(manager_module, "MAX_OPEN_SESSIONS", 1)
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.sendall(b'{"op":"create","session":"s"}\n{"op":"create","session":"t"}\n')
            assert json.loads(reader.readline())["event"] == "created"
            row = json.loads(reader.readline())
            assert row["event"] == "error" and row["code"] == "session", row
            assert row["session"] == "t", row
            assert row["error"] == (
                "open sessions must be at most 1; close one before opening another"
            ), row
            sock.sendall(b'{"op":"hello"}\n')
            hello = json.loads(reader.readline())
            assert hello["event"] == "hello" and hello["sessions"] == 1, hello

    def test_max_pending_past_the_ceiling_gets_one_attributed_error(self, server):
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.sendall(b'{"op":"create","session":"s","max_pending":1000000000000}\n')
            row = json.loads(reader.readline())
            assert row["event"] == "error" and row["code"] == "session", row
            assert row["error"] == (
                f"max_pending must be at most {MAX_PENDING}, got 1000000000000"
            ), row
            sock.sendall(b'{"op":"hello"}\n')
            hello = json.loads(reader.readline())
            assert hello["event"] == "hello" and hello["sessions"] == 0, hello

    def test_a_fleet_at_the_machine_ceiling_is_created(self, server):
        with ServiceClient(server.host, server.port) as client:
            assert client.create("wide", machines=MAX_MACHINES)["event"] == "created"
            # The job may run only on the last machine.
            job = Job(0, 0.0, (math.inf,) * (MAX_MACHINES - 1) + (1.0,))
            client.submit("wide", [job.to_dict()])
            final = client.close_session("wide")
        assert {event["machine"] for event in final.decisions} == {MAX_MACHINES - 1}
        batch = solve(Instance.build(MAX_MACHINES, [job]), "rejection-flow", epsilon=0.5)
        assert canonical_json(_strip(final.event)) == canonical_json(batch.as_row())

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
# Server framing on the raw wire: line splitting, the line limit, slow readers, EOF
# --------------------------------------------------------------------------------------


def _read_until(reader, event: str) -> list[dict]:
    """Rows up to and including the first one whose ``event`` is ``event``."""
    rows = [json.loads(reader.readline())]
    while rows[-1]["event"] != event:
        rows.append(json.loads(reader.readline()))
    return rows


def _loopback_buffering() -> int:
    """Bytes a loopback sender can queue toward a peer with a 4 KiB
    ``SO_RCVBUF`` that reads nothing: the kernel's send and receive buffers."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with socket.socket() as peer:
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            peer.connect(listener.getsockname())
            sender, _ = listener.accept()
            with sender:
                sender.setblocking(False)
                queued, chunk = 0, b"x" * 65536
                while True:
                    try:
                        queued += sender.send(chunk)
                    except BlockingIOError:
                        return queued


class TestServerWire:
    def test_pipelined_and_split_requests_are_answered_in_order(self, server):
        submit = canonical_json(
            {"op": "submit", "session": "s", "jobs": [j.to_dict() for j in _jobs()]}
        ).encode("ascii") + b"\n"
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Several requests in one send.  Comment and blank lines get no
            # reply but count toward the line numbers errors name.
            sock.sendall(
                b'{"op":"create","session":"s"}\n# a comment\n\n{"op":"nope"}\n'
                + b'{"op":"stats","session":"s"}\n{"op":"hello"}\n' * 20
            )
            rows = [json.loads(reader.readline()) for _ in range(42)]
            assert rows[0]["event"] == "created"
            assert rows[1]["event"] == "error" and rows[1]["code"] == "protocol", rows[1]
            assert rows[1]["error"].startswith("line 4: "), rows[1]
            assert [row["event"] for row in rows[2:]] == ["stats", "hello"] * 20
            # One request over many sends.
            for start in range(0, len(submit), 97):
                sock.sendall(submit[start:start + 97])
                time.sleep(0.001)
            accepted = json.loads(reader.readline())
            assert accepted["event"] == "accepted" and accepted["count"] == 24, accepted
            sock.sendall(b'{"op":"close","session":"s"}\n')
            final = _read_until(reader, "final")[-1]
        assert canonical_json(_strip(final)) == canonical_json(_reference())

    @pytest.mark.parametrize("terminated", [True, False], ids=["terminated", "unterminated"])
    def test_a_line_past_the_limit_closes_only_its_own_connection(
        self, terminated, monkeypatch
    ):
        monkeypatch.setattr("repro.service.server.MAX_LINE_BYTES", 64)
        long_line = b'{"op":"hello","pad":"' + b"x" * 80 + b'"}' + (b"\n" if terminated else b"")
        with (
            start_server_thread(defaults=GOLDEN_OPTS) as handle,
            socket.create_connection((handle.host, handle.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
            ServiceClient(handle.host, handle.port, timeout=30) as other,
        ):
            assert other.create("kept")["event"] == "created"
            sock.sendall(b'{"op":"hello"}\n' + long_line)
            rows = [json.loads(line) for line in reader]  # up to the server's close
            assert [row["event"] for row in rows] == ["hello", "error"], rows
            assert rows[1]["code"] == "protocol" and rows[1]["error"] == "line too long"
            assert other.hello()["sessions"] == 1
            assert other.close_session("kept").event["event"] == "final"

    def test_a_client_that_stops_reading_does_not_stall_another(self):
        # Every decision line repeats the session name and each job makes
        # about three, so with an 8,000-character name the poll reply is
        # about three times what the kernel queues toward a peer that reads
        # nothing: the server holds the rest while it serves the other client.
        buffered = _loopback_buffering()
        name = "s" * 8000
        jobs = [
            {"id": j, "release": float(j), "sizes": [0.5]}
            for j in range(buffered // len(name) + 1)
        ]
        with (
            start_server_thread() as handle,
            socket.socket() as slow,
            slow.makefile("rb") as reader,
        ):
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(30)
            slow.connect((handle.host, handle.port))
            for line in (
                {"op": "create", "session": name, "algorithm": "fcfs", "machines": 1},
                {"op": "submit", "session": name, "jobs": jobs},
            ):
                slow.sendall(canonical_json(line).encode("ascii") + b"\n")
                reader.readline()
            slow.sendall(b'{"op":"poll","session":"%s"}\n{"op":"hello"}\n' % name.encode())
            slow.recv(1, socket.MSG_PEEK)  # the server has built the reply and begun it
            with ServiceClient(handle.host, handle.port, timeout=10) as fast:
                assert fast.hello()["sessions"] == 1
            reply = _read_until(reader, "polled")
            assert json.loads(reader.readline())["event"] == "hello"  # served after the poll
        assert reply[-1]["count"] == len(reply) - 1 > 0
        assert sum(len(canonical_json(row)) + 1 for row in reply) > 2 * buffered

    def test_an_unterminated_last_line_is_answered_at_eof(self, server):
        with (
            socket.create_connection((server.host, server.port), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.sendall(b'{"op":"create","session":"s"}\n{"op":"hello"}')
            sock.shutdown(socket.SHUT_WR)
            rows = [json.loads(line) for line in reader]  # up to the server's close
        assert [row["event"] for row in rows] == ["created", "hello"]
        assert rows[1]["sessions"] == 1

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "reset"])
    def test_a_peer_gone_mid_line_leaves_the_server_serving(self, server, reset):
        jobs = [j.to_dict() for j in _jobs()]
        with ServiceClient(server.host, server.port) as client:
            client.create("kept")
            client.submit("kept", jobs[:12])
            gone = socket.create_connection((server.host, server.port), timeout=30)
            if reset:  # close with an RST instead of a FIN
                gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            gone.sendall(b'{"op":"submit","session":"kept","jobs":[{"id":12,')
            gone.close()
            assert client.hello()["sessions"] == 1
            client.submit("kept", jobs[12:])
            final = client.close_session("kept")
        assert canonical_json(_strip(final.event)) == canonical_json(_reference())


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
            (_NESTED_LINE.encode("ascii") + b"\n", "not JSON: maximum recursion depth"),
        ],
        ids=["non-json", "json-array", "cut-off", "nested-past-recursion-limit"],
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
        # No wall-clock columns: artifacts are a function of the config.
        for column in ("throughput_jobs_per_s", "latency_p50_ms", "latency_p99_ms"):
            assert column not in result.tables[0].columns
            assert column not in rows[0]

    def test_objective_sum_adds_left_to_right(self, monkeypatch):
        # Sessions of objective 1.0, then ten of 1e-16.  Left to right, as
        # ``sum`` adds on 3.10 and 3.11, the ten vanish; 3.12's compensated
        # ``sum`` gives 1.000000000000001.
        from repro.experiments import run_experiment
        from repro.service.client import LoadgenReport, SessionReport

        def loadgen(host, port, *, sessions, **options):
            reports = [
                SessionReport(f"s{k}", "flash-crowd", 0,
                              final_row={"objective_value": value, "rejected_count": 0})
                for k, value in enumerate([1.0] + [1e-16] * (sessions - 1))
            ]
            return LoadgenReport(reports, 0.0, 0, 0, 0, 0.0, 0.0, 0.0, verified=sessions)

        monkeypatch.setattr("repro.service.client.run_loadgen", loadgen)
        result = run_experiment("E15", session_counts=(11,))
        assert result.raw["rows"][0]["objective_sum"] == 1.0

    def test_e15_rejects_impossible_chunking(self):
        from repro.experiments import run_experiment

        with pytest.raises(ValueError, match="throttled forever"):
            run_experiment("E15", chunk_size=64, max_pending=8)

    def test_e15_registered_in_grids(self):
        from repro.campaigns.grids import GRIDS

        small_ids = {entry.experiment_id for entry in GRIDS["small"].entries}
        medium_ids = {entry.experiment_id for entry in GRIDS["medium"].entries}
        assert "E15" in small_ids and "E15" in medium_ids


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

    @pytest.mark.parametrize(
        "line",
        [_PAST_FLOAT_ROW, _PAST_DIGIT_LIMIT_LINE, _NESTED_LINE],
        ids=["past-float", "past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_stdio_serve_refuses_an_oversized_number_with_exit_2(self, line, tmp_path):
        trace = tmp_path / "oversized.ndjson"
        trace.write_text(line + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["serve", "--machines", "2", "--trace", str(trace)], out=out, err=err)
        assert code == 2
        assert err.getvalue().startswith("error: line 1: "), err.getvalue()[:200]

    def test_stdio_serve_process_reports_a_nested_line_without_a_traceback(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--machines", "1"],
            input=_NESTED_LINE + "\n", capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stderr.startswith("error: line 1: not valid JSON"), proc.stderr[-500:]
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

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

    def test_address_in_use_is_a_clean_error(self):
        # A port another socket holds: an attributed error and exit 2, not
        # an OSError traceback, and no listening line.
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(["serve", "--listen", f"127.0.0.1:{port}"], out=out, err=err)
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "Address already in use" in err.getvalue()

    def test_unresolvable_address_is_a_clean_error(self, monkeypatch):
        # A stand-in resolver answers as one would for an unknown name,
        # without a lookup.
        def unresolvable(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", unresolvable)
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["serve", "--listen", "no-such-host.invalid:8000"], out=out, err=err)
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: cannot listen on no-such-host.invalid:8000: "
            f"[Errno {socket.EAI_NONAME}] Name or service not known\n"
        )

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    @pytest.mark.parametrize("flag", ["--listen", "--connect"])
    def test_port_out_of_range_is_a_clean_error(self, monkeypatch, flag, port):
        # getaddrinfo would take 65536 and 70000 modulo 2**16, so serve
        # would listen on, and loadgen connect to, port 0 or 4464; the
        # stand-ins fail the test on any bind or connect.
        def no_socket(*args, **kwargs):
            raise AssertionError(f"socket opened for {args}")

        monkeypatch.setattr(socket, "create_server", no_socket)
        monkeypatch.setattr(socket, "create_connection", no_socket)
        command = "serve" if flag == "--listen" else "loadgen"
        out, err = io.StringIO(), io.StringIO()
        code = cli.main([command, flag, f"127.0.0.1:{port}"], out=out, err=err)
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (
            f"error: expected HOST:PORT with PORT in 0..65535, got '127.0.0.1:{port}'\n"
        )

    def test_server_that_cannot_listen_restores_signal_handlers(self):
        previous = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
        with socket.create_server(("127.0.0.1", 0)) as held:
            server = ServiceServer(host="127.0.0.1", port=held.getsockname()[1])
            with pytest.raises(ServiceError, match="cannot listen on"):
                server.run()
        assert {sig: signal.getsignal(sig) for sig in previous} == previous
        assert server.address is None

    def test_server_thread_that_cannot_listen_raises_its_error(self, capfd):
        # The caller gets the server's own error, not a bare "failed to
        # start", and no thread traceback reaches stderr.
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            with pytest.raises(
                ServiceError,
                match=rf"^cannot listen on 127\.0\.0\.1:{port}: \[Errno 98\] Address already in",
            ):
                start_server_thread(port=port)
        assert capfd.readouterr().err == ""

    def test_self_hosted_loadgen_that_cannot_listen_is_a_clean_error(self, monkeypatch, capfd):
        # `repro loadgen` without --connect starts its server on a thread; a
        # stand-in bind fails as a held port does.
        def address_in_use(*args, **kwargs):
            raise OSError(98, "Address already in use")

        monkeypatch.setattr(socket, "create_server", address_in_use)
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["loadgen", "--sessions", "1", "--jobs", "4"], out=out, err=err)
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: cannot listen on 127.0.0.1:0: [Errno 98] Address already in use\n"
        )
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--param", "bogus=1"],
            ["--algorithm", "nope"],
            ["--max-pending", "0"],
            ["--max-pending", str(MAX_PENDING + 1)],
        ],
        ids=["param", "algorithm", "max-pending-zero", "max-pending-past-ceiling"],
    )
    def test_listen_refuses_bad_session_defaults_before_listening(self, flags, monkeypatch):
        # Every create would fail on these defaults: serve exits 2 with the
        # stdio path's error line before it builds a server to listen with.
        def listen(*args, **kwargs):
            raise AssertionError("serve --listen built a server on bad session defaults")

        monkeypatch.setattr("repro.service.server.ServiceServer", listen)
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["serve", "--listen", "127.0.0.1:0", *flags], out=out, err=err)
        stdio_err = io.StringIO()
        stdio_code = cli.main(["serve", *flags], out=io.StringIO(), err=stdio_err)
        assert code == stdio_code == 2
        assert "listening" not in out.getvalue()
        assert err.getvalue() == stdio_err.getvalue() and err.getvalue().startswith("error: ")

    @pytest.mark.parametrize(
        "flags", [["--checkpoint-every", "1"], ["--checkpoint-dir", "D"], ["--recover"]],
        ids=["--checkpoint-every", "--checkpoint-dir", "--recover"],
    )
    def test_retired_durability_flags_exit_2(self, flags, tmp_path, monkeypatch, capsys):
        # A session outlives its server only through its client's snapshot:
        # argparse refuses the server-side checkpoint flags before listening.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "--listen", "127.0.0.1:0", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
    first = proc.stdout.readline()
    try:
        listening = json.loads(first)
    except ValueError:
        listening = None
    if not isinstance(listening, dict) or listening.get("event") != "listening":
        # Kill and reap it here: a leaked process and its pipes would surface
        # as ResourceWarnings in some later, unrelated test.
        proc.kill()
        _, err = proc.communicate()
        pytest.fail(f"server did not start listening (first line {first!r}):\n{err}")
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

    @staticmethod
    def _serve_in_mode(mode):
        """One session on a `serve --listen` process run under REPRO_DISPATCH=mode."""
        with dispatch_mode(mode):
            proc, host, port = _spawn_server()
        try:
            with ServiceClient(host, port, timeout=30) as client:
                created = client.create("t")
                client.submit("t", [j.to_dict() for j in _jobs(20, scenario="flash-crowd")])
                decisions = list(client.poll("t").decisions)
                stats, (listing,) = client.stats("t"), client.sessions()
                final = client.close_session("t")
                client.shutdown()
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (out, err)
        modes = (created["dispatch"], stats["dispatch"], listing["dispatch"])
        return modes, decisions + list(final.decisions), final.event

    def test_a_server_runs_its_process_dispatch_mode(self):
        # REPRO_DISPATCH is the one place a server's mode is set; `created`,
        # `stats` and `sessions` report it, and the decision and final lines
        # are those of the default indexed server.
        (scan_modes, *scan_lines), (indexed_modes, *indexed_lines) = (
            self._serve_in_mode(mode) for mode in ("scan", "indexed")
        )
        assert scan_modes == ("scan",) * 3 and indexed_modes == ("indexed",) * 3
        assert scan_lines == indexed_lines
        assert scan_lines[0] and scan_lines[1]["event"] == "final"

    def test_client_snapshot_outlives_a_killed_server(self):
        """The client keeps a snapshot, the server is SIGKILLed; a fresh
        server restores it and finishes the stream byte-identically to the
        uninterrupted batch run."""
        jobs = _jobs(20)
        reference = canonical_json(_reference(20))
        proc, host, port = _spawn_server()
        try:
            with ServiceClient(host, port, timeout=30) as client:
                client.create("durable")
                for job in jobs[:12]:
                    client.submit("durable", [job.to_dict()])
                snapshot = client.snapshot("durable")
            proc.kill()  # SIGKILL: no drain, no flush — a real crash
            proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        proc2, host2, port2 = _spawn_server()
        try:
            with ServiceClient(host2, port2, timeout=30) as client:
                assert client.sessions() == []  # the server itself kept nothing
                assert client.restore("durable", snapshot)["submitted"] == 12
                client.submit("durable", [j.to_dict() for j in jobs[12:]])
                final = client.close_session("durable")
                assert canonical_json(_strip(final.event)) == reference
                client.shutdown()
            out, err = proc2.communicate(timeout=60)
            assert proc2.returncode == 0, (out, err)
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.communicate()
