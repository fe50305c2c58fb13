"""Versioned control-message protocol for the multi-session scheduling service.

The wire is newline-delimited JSON in both directions, layered on the
stdio ``repro serve`` schema so existing clients keep working:

* a line **without** an ``"op"`` key is a **bare job line** — exactly
  today's ``repro serve`` input schema (:func:`~repro.workloads.traces.parse_job_row`).
  It addresses the connection's implicit single session, which is created on
  first use from the server's defaults; decision lines come back untagged,
  byte-identical to the blocking stdio serve;
* a line **with** an ``"op"`` key is a **control message** addressing a named
  session hosted by the :class:`~repro.service.manager.SessionManager`.

Control messages (``PROTOCOL_VERSION`` = 1)::

    {"op": "hello"}                                       -> hello
    {"op": "create", "session": S, "algorithm": ..., "machines": ...,
     "alpha": ..., "dispatch": ..., "params": {...}}      -> created
    {"op": "submit", "session": S, "jobs": [JOB, ...]}    -> accepted | throttled
    {"op": "submit", "session": S, "job": JOB}            -> accepted | throttled
    {"op": "poll", "session": S}                          -> decision* polled
    {"op": "advance", "session": S, "t": T}               -> decision* advanced
    {"op": "snapshot", "session": S}                      -> snapshot
    {"op": "restore", "session": S, "snapshot": {...}}    -> created (restored)
    {"op": "close", "session": S}                         -> decision* final
    {"op": "stats", "session": S}                         -> stats
    {"op": "sessions"}                                    -> sessions
    {"op": "migrate", "session": S, "target": "H:P"}      -> migrated
    {"op": "shutdown"}                                    -> shutdown

Every request is answered by exactly one **terminator** line (right column;
``error`` on failure), optionally preceded by streamed ``decision`` lines —
so a blocking request/response client needs no framing beyond "read lines
until the terminator".  ``throttled`` is the flow-control response of the
per-session bounded offer queue: the submission was **not** ingested and the
client must ``poll`` (draining the queue) before retrying.

Responses reuse the established line shapes — ``{"event": "decision", ...}``
and ``{"event": "final", ...}`` are exactly the stdio serve lines plus a
``"session"`` tag when they belong to a named session — and control
responses carry ``"event"`` keys of their own.  Canonical JSON keeps every
line byte-stable for identical histories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import ServiceProtocolError, TraceSchemaError
from repro.simulation.job import Job
from repro.simulation.stepper import DecisionEvent
from repro.utils.serialization import canonical_json
from repro.workloads.traces import parse_job_row

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "TERMINATORS",
    "Request",
    "parse_request",
    "response_line",
    "decision_line",
    "final_line",
    "error_line",
]

#: Bump when the control-message schema changes incompatibly; ``hello``
#: advertises it and :func:`parse_request` rejects mismatched ``"v"`` fields.
PROTOCOL_VERSION = 1

#: Recognised control operations.
OPS = (
    "hello",
    "create",
    "submit",
    "poll",
    "advance",
    "snapshot",
    "restore",
    "close",
    "stats",
    "sessions",
    "migrate",
    "shutdown",
)

#: Response event that terminates each op's reply (``error`` always can).
TERMINATORS: dict[str, str] = {
    "hello": "hello",
    "create": "created",
    "submit": "accepted",
    "poll": "polled",
    "advance": "advanced",
    "snapshot": "snapshot",
    "restore": "created",
    "close": "final",
    "stats": "stats",
    "sessions": "sessions",
    "migrate": "migrated",
    "shutdown": "shutdown",
}

#: Ops that must name a session.
_SESSION_OPS = frozenset(
    {"create", "submit", "poll", "advance", "snapshot", "restore", "close", "stats", "migrate"}
)


@dataclass(frozen=True)
class Request:
    """One parsed input line: a control message or a bare job line."""

    op: str
    session: str | None = None
    #: Raw payload fields of the control message (already shape-checked).
    payload: dict = field(default_factory=dict)
    #: Parsed jobs for ``submit`` requests.
    jobs: tuple[Job, ...] = ()
    #: ``True`` for a bare job line (the backward-compatible serve schema).
    bare: bool = False
    lineno: int = 0


def parse_request(line: str, lineno: int = 0) -> Request:
    """Parse one input line into a :class:`Request`.

    Bare job lines raise :class:`~repro.exceptions.TraceSchemaError` on
    schema violations (unchanged serve behaviour); control messages raise
    :class:`~repro.exceptions.ServiceProtocolError`.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"not valid JSON ({exc})", lineno=lineno) from exc
    if not isinstance(data, dict):
        raise TraceSchemaError(
            f"expected a JSON object per line, got {type(data).__name__}", lineno=lineno
        )
    if "op" not in data:
        # Backward-compatible bare job line: the single-session serve schema.
        return Request(
            op="submit", jobs=(parse_job_row(data, lineno),), bare=True, lineno=lineno
        )

    op = data["op"]
    if op not in OPS:
        raise ServiceProtocolError(
            f"unknown op {op!r}; known ops: {sorted(OPS)}", lineno=lineno
        )
    version = data.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ServiceProtocolError(
            f"unsupported protocol version {version!r}; this server speaks "
            f"v{PROTOCOL_VERSION}",
            lineno=lineno,
        )
    session = data.get("session")
    if op in _SESSION_OPS:
        if not isinstance(session, str) or not session:
            raise ServiceProtocolError(
                f"op {op!r} requires a non-empty string 'session' field", lineno=lineno
            )
    elif session is not None and not isinstance(session, str):
        raise ServiceProtocolError(
            f"'session' must be a string, got {type(session).__name__}", lineno=lineno
        )

    jobs: tuple[Job, ...] = ()
    if op == "submit":
        if ("jobs" in data) == ("job" in data):
            raise ServiceProtocolError(
                "op 'submit' requires exactly one of 'job' (object) or "
                "'jobs' (array of objects)",
                lineno=lineno,
            )
        rows = data.get("jobs") if "jobs" in data else [data["job"]]
        if not isinstance(rows, list):
            raise ServiceProtocolError(
                f"'jobs' must be an array, got {type(rows).__name__}", lineno=lineno
            )
        parsed = []
        for row in rows:
            if not isinstance(row, Mapping):
                raise ServiceProtocolError(
                    f"job rows must be objects, got {type(row).__name__}", lineno=lineno
                )
            parsed.append(parse_job_row(row, lineno))
        jobs = tuple(parsed)
    elif op == "advance":
        t = data.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise ServiceProtocolError(
                "op 'advance' requires a numeric 't' field", lineno=lineno
            )
    elif op == "restore":
        if not isinstance(data.get("snapshot"), Mapping):
            raise ServiceProtocolError(
                "op 'restore' requires a 'snapshot' object "
                "(a SchedulerSession.snapshot payload)",
                lineno=lineno,
            )
    elif op == "migrate":
        target = data.get("target")
        if not isinstance(target, str) or ":" not in target:
            raise ServiceProtocolError(
                "op 'migrate' requires a 'target' of the form 'host:port'",
                lineno=lineno,
            )
    elif op == "create":
        params = data.get("params")
        if params is not None and not isinstance(params, Mapping):
            raise ServiceProtocolError(
                f"'params' must be an object, got {type(params).__name__}",
                lineno=lineno,
            )

    payload = {k: v for k, v in data.items() if k not in ("op", "session", "v")}
    return Request(op=op, session=session, payload=payload, jobs=jobs, lineno=lineno)


# --------------------------------------------------------------------------------------
# Response encoders
# --------------------------------------------------------------------------------------


def response_line(kind: str, session: "str | None" = None, **fields: Any) -> str:
    """Encode one control response as a canonical-JSON line."""
    row: dict[str, Any] = {"event": kind, **fields}
    if session is not None:
        row["session"] = session
    return canonical_json(row)


def decision_line(event: DecisionEvent, session: "str | None" = None) -> str:
    """Encode one decision event, tagged with its session when named.

    With ``session=None`` this is the stdio ``repro serve`` line.
    """
    row: dict[str, Any] = {"event": "decision", **event.as_dict()}
    if session is not None:
        row["session"] = session
    return canonical_json(row)


def final_line(row: Mapping[str, Any], session: "str | None" = None) -> str:
    """Encode the end-of-session summary (``SolveOutcome.as_row()``) line."""
    payload: dict[str, Any] = {"event": "final", **row}
    if session is not None:
        payload["session"] = session
    return canonical_json(payload)


def error_line(
    message: str,
    session: "str | None" = None,
    code: "str | None" = None,
    lineno: "int | None" = None,
) -> str:
    """Encode an error response (the universal terminator)."""
    fields: dict[str, Any] = {"error": message}
    if code is not None:
        fields["code"] = code
    if lineno:
        fields["lineno"] = lineno
    return response_line("error", session, **fields)
