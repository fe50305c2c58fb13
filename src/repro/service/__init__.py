"""Streaming service layer: scheduler sessions over the engine stepper.

This subpackage is the online-facing API of the reproduction:

* :mod:`repro.service.session` — :func:`open_session` /
  :class:`SchedulerSession`: incremental job ingestion (single jobs or
  ``JobChunk`` bulk rows), a typed decision-event stream, canonical-JSON
  snapshot/restore checkpointing, and ``finalize()`` into the batch facade's
  :class:`~repro.solvers.outcome.SolveOutcome`;
* :mod:`repro.service.protocol` — the newline-delimited JSON wire format:
  bare job lines in and decision/final lines out (what the stdio
  ``repro serve`` speaks), plus the versioned control messages of the
  multi-session service;
* :mod:`repro.service.manager` — :class:`SessionManager`: many named
  concurrent sessions with lifecycle, bounded-queue backpressure,
  checkpoint/recover crash recovery and migration;
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
    snapshot_job_count,
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
    "snapshot_job_count",
    "start_server_thread",
    "streaming_algorithms",
]
