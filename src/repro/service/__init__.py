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
* :mod:`repro.service.server` — the NDJSON TCP server (``repro serve
  --listen``): one ``selectors`` loop on one thread hosting one manager for
  many clients;
* :mod:`repro.service.client` — the blocking reference client and the
  ``repro loadgen`` capacity harness.

The decision-event type itself
(:class:`~repro.simulation.stepper.DecisionEvent`) lives with its emitter in
the simulation layer and is re-exported here.

The re-exports load on first access (PEP 562), so a user of sessions or of
the manager (``repro.open_session``, stdio ``repro serve``) loads neither
the TCP server nor its client.
"""

#: Public names and the submodule each loads from.
_LAZY = {
    "DECISION_KINDS": "repro.simulation.stepper",
    "DecisionEvent": "repro.simulation.stepper",
    "LoadgenReport": "repro.service.client",
    "ServiceClient": "repro.service.client",
    "run_loadgen": "repro.service.client",
    "DEFAULT_MAX_PENDING": "repro.service.manager",
    "HostedSession": "repro.service.manager",
    "SessionManager": "repro.service.manager",
    "SubmitOutcome": "repro.service.manager",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "ServerHandle": "repro.service.server",
    "ServiceServer": "repro.service.server",
    "start_server_thread": "repro.service.server",
    "SNAPSHOT_SCHEMA_VERSION": "repro.service.session",
    "SchedulerSession": "repro.service.session",
    "open_session": "repro.service.session",
    "streaming_algorithms": "repro.service.session",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted(_LAZY)
