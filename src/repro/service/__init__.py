"""Streaming service layer: scheduler sessions over the engine stepper.

This subpackage is the online-facing API of the reproduction:

* :mod:`repro.service.session` — :func:`open_session` /
  :class:`SchedulerSession`: incremental job ingestion (single jobs or
  ``JobChunk`` bulk rows), a typed decision-event stream handed out once,
  canonical-JSON snapshot/restore by op-log replay, and ``finalize()`` into
  the batch facade's :class:`~repro.solvers.outcome.SolveOutcome`;
* :mod:`repro.service.protocol` — the newline-delimited JSON wire format:
  the versioned control messages of the multi-session service, and the
  decision/final lines the stdio ``repro serve`` prints;
* :mod:`repro.service.manager` — :class:`SessionManager`: many named
  concurrent sessions with lifecycle, bounded-queue backpressure and
  client-held snapshots (a session outlives its server only through a
  ``snapshot`` its client keeps and ``restore``s);
* :mod:`repro.service.server` — the asyncio NDJSON TCP server
  (``repro serve --listen``) hosting one manager for many clients;
* :mod:`repro.service.client` — the blocking reference client and the
  ``repro loadgen`` capacity harness.

The decision-event type itself
(:class:`~repro.simulation.stepper.DecisionEvent`) lives with its emitter in
the simulation layer and is re-exported here.
"""

from repro.simulation.stepper import DECISION_KINDS, DecisionEvent
from repro.service.client import LoadgenReport, ServiceClient, run_loadgen
from repro.service.manager import (
    DEFAULT_MAX_PENDING,
    HostedSession,
    SessionManager,
    SubmitOutcome,
)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ServerHandle, ServiceServer, start_server_thread
from repro.service.session import (
    SNAPSHOT_SCHEMA_VERSION,
    SchedulerSession,
    open_session,
    streaming_algorithms,
)

__all__ = [
    "DECISION_KINDS",
    "DEFAULT_MAX_PENDING",
    "DecisionEvent",
    "HostedSession",
    "LoadgenReport",
    "PROTOCOL_VERSION",
    "SNAPSHOT_SCHEMA_VERSION",
    "SchedulerSession",
    "ServerHandle",
    "ServiceClient",
    "ServiceServer",
    "SessionManager",
    "SubmitOutcome",
    "open_session",
    "run_loadgen",
    "start_server_thread",
    "streaming_algorithms",
]
