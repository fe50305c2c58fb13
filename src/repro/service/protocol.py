"""Versioned control-message protocol for the multi-session scheduling service.

The wire is newline-delimited JSON in both directions.  Every input line is a
**control message**: a JSON object whose ``"op"`` names the operation and,
for the ops that address one, whose ``"session"`` names a session hosted by
the :class:`~repro.service.manager.SessionManager`.  Job rows travel inside a
``submit`` op's ``jobs`` array, in the stdio ``repro serve`` row schema
(:func:`~repro.workloads.rows.parse_job_row`).

Control messages (``PROTOCOL_VERSION`` = 1)::

    {"op": "hello"}                                       -> hello
    {"op": "create", "session": S, "algorithm": ..., "machines": ...,
     "alpha": ..., "dispatch": ..., "params": {...},
     "max_pending": ...}                                  -> created
    {"op": "submit", "session": S, "jobs": [JOB, ...]}    -> accepted | throttled
    {"op": "poll", "session": S}                          -> decision* polled
    {"op": "advance", "session": S, "t": T}               -> decision* advanced
    {"op": "snapshot", "session": S}                      -> snapshot
    {"op": "restore", "session": S, "snapshot": {...}}    -> created (restored)
    {"op": "close", "session": S}                         -> decision* final
    {"op": "stats", "session": S}                         -> stats
    {"op": "sessions"}                                    -> sessions
    {"op": "shutdown"}                                    -> shutdown

Beside ``op``, ``session`` and the optional version ``v``, an op carries
exactly the fields shown for it (``create``'s options may be left out or
``null`` for the server default); any other field is a protocol error.

Every request is answered by exactly one **terminator** line (right column;
``error`` on failure), optionally preceded by streamed ``decision`` lines —
so a blocking request/response client needs no framing beyond "read lines
until the terminator".  ``throttled`` is the flow-control response of the
per-session bounded offer queue: the submission was **not** ingested and the
client must ``poll`` (draining the queue) before retrying.

Responses reuse the stdio serve line shapes — ``{"event": "decision", ...}``
and ``{"event": "final", ...}`` plus a ``"session"`` tag — and control
responses carry ``"event"`` keys of their own.  Canonical JSON keeps every
line byte-stable for identical histories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from repro.exceptions import ServiceProtocolError
from repro.simulation.job import Job
from repro.simulation.stepper import DecisionEvent
from repro.utils.serialization import canonical_json
from repro.workloads.rows import parse_job_row

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

#: The JSON type of a number field.
_NUMBER = (int, float)

#: The fields each op reads beside the envelope (``op``, ``session``, ``v``):
#: field -> (JSON type, what the error says it must be).  ``bool`` is never a
#: number, and neither NaN nor an int too large for a float is a valid one.
#: ``create``'s options may be left out or ``null``; every other op's fields
#: are required.  Any other field is refused.
_FIELDS: dict[str, dict[str, tuple[Any, str]]] = {
    "hello": {},
    "create": {
        "algorithm": (str, "a string"),
        "machines": (int, "an integer"),
        "alpha": (_NUMBER, "a number"),
        "dispatch": (str, "a string"),
        "params": (Mapping, "an object"),
        "max_pending": (int, "an integer"),
    },
    "submit": {"jobs": (list, "an array of job objects")},
    "poll": {},
    "advance": {"t": (_NUMBER, "a number other than NaN")},
    "snapshot": {},
    "restore": {"snapshot": (Mapping, "an object (a SchedulerSession.snapshot payload)")},
    "close": {},
    "stats": {},
    "sessions": {},
    "shutdown": {},
}

_ENVELOPE = ("op", "session", "v")

#: Recognised control operations.
OPS = tuple(_FIELDS)

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
    "shutdown": "shutdown",
}

#: Ops that must name a session.
_SESSION_OPS = frozenset(
    {"create", "submit", "poll", "advance", "snapshot", "restore", "close", "stats"}
)


@dataclass(frozen=True)
class Request:
    """One parsed control message."""

    op: str
    session: str | None = None
    #: The op's fields (already checked against its field table).
    payload: dict = field(default_factory=dict)
    #: Parsed jobs for ``submit`` requests.
    jobs: tuple[Job, ...] = ()
    lineno: int = 0


def _fits_float(value: int) -> bool:
    """Whether ``float(value)`` holds the int rather than overflowing."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def parse_request(line: str, lineno: int = 0) -> Request:
    """Parse one input line into a :class:`Request`.

    A line that is not a well-formed control message raises
    :class:`~repro.exceptions.ServiceProtocolError` naming the problem; a
    malformed job row in a ``submit`` raises
    :class:`~repro.exceptions.TraceSchemaError` naming the field.
    """
    # ValueError: malformed JSON or an int past the digit limit;
    # RecursionError: nesting past the recursion limit.
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ServiceProtocolError(f"not valid JSON ({exc})", lineno=lineno) from None
    if not isinstance(data, dict):
        raise ServiceProtocolError(
            f"expected a JSON object per line, got {type(data).__name__}", lineno=lineno
        )
    if "op" not in data:
        raise ServiceProtocolError(
            "line has no 'op' field; job rows go in a 'submit' op's 'jobs' array",
            lineno=lineno,
        )
    op = data["op"]
    if not isinstance(op, str) or op not in _FIELDS:
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

    fields = _FIELDS[op]
    payload = {k: v for k, v in data.items() if k not in _ENVELOPE}
    for key in payload:
        if key not in fields:
            raise ServiceProtocolError(
                f"op {op!r} has unknown field {key!r}; it reads "
                f"{sorted(fields) or 'none'} beside {list(_ENVELOPE)}",
                lineno=lineno,
            )
    for key, (kind, description) in fields.items():
        value = payload.get(key)
        if value is None:
            if op == "create":
                continue  # left out or null: the server default
            raise ServiceProtocolError(
                f"op {op!r} requires a {key!r} field: {description}", lineno=lineno
            )
        nan = isinstance(value, float) and math.isnan(value)
        if nan or isinstance(value, bool) or not isinstance(value, kind):
            got = "NaN" if nan else type(value).__name__
        elif kind is _NUMBER and isinstance(value, int) and not _fits_float(value):
            got = "an integer too large for a float"
        else:
            continue
        raise ServiceProtocolError(
            f"op {op!r} field {key!r} must be {description}, got {got}", lineno=lineno
        )

    jobs: tuple[Job, ...] = ()
    if op == "submit":
        jobs = tuple([parse_job_row(row, lineno) for row in payload["jobs"]])
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


#: A decision line with its keys in canonical (sorted) order.  The fifth slot
#: holds the whole ``,"session":...`` member, or nothing on an untagged line.
_DECISION_TEMPLATE = (
    '{"event":"decision","job_id":%d,"kind":%s,"machine":%s,"reason":%s%s,'
    '"speed":%s,"time":%r}'
)


def decision_line(event: DecisionEvent, session: "str | None" = None) -> str:
    """Encode one decision event, tagged with its session when named.

    With ``session=None`` this is the stdio ``repro serve`` line.  The line
    is ``canonical_json`` of ``{"event": "decision", **event.as_dict()}``
    plus the ``session`` tag, which stays the spec.  A fixed template writes
    it when every field is an exact ``int``, a finite exact ``float``, an
    exact ``str`` or ``None``, each spelled as ``json.dumps`` spells it; any
    other value (a bool, a numpy scalar, a subclass, a non-finite float)
    goes through ``canonical_json`` itself.
    """
    kind, time, job_id, machine, speed, reason = event
    if (
        type(job_id) is int
        and type(kind) is str
        and type(time) is float
        and math.isfinite(time)
        and (machine is None or type(machine) is int)
        and (reason is None or type(reason) is str)
        and (speed is None or (type(speed) is float and math.isfinite(speed)))
        and (session is None or type(session) is str)
    ):
        return _DECISION_TEMPLATE % (
            job_id,
            encode_basestring_ascii(kind),
            "null" if machine is None else machine,
            "null" if reason is None else encode_basestring_ascii(reason),
            "" if session is None else ',"session":' + encode_basestring_ascii(session),
            "null" if speed is None else repr(speed),
            time,
        )
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
