"""Blocking client + load generator for the multi-session scheduling service.

:class:`ServiceClient` is the reference client of the control protocol in
:mod:`repro.service.protocol`: one TCP connection, blocking request/response
("send one control line, read response lines until the op's terminator").
Threads each owning a client is the intended concurrency model — the server
multiplexes them onto one event loop.

:func:`run_loadgen` is the capacity-measurement harness behind
``repro loadgen`` and the E15 service-capacity experiment: it drives N
concurrent sessions from the scenario catalog at a controlled rate, records
per-chunk decision latencies, and can verify that every session's final
summary is byte-identical to the batch :func:`repro.solve` of the same
instance — the end-to-end determinism claim of the service layer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.exceptions import ServiceError
from repro.service.protocol import PROTOCOL_VERSION, TERMINATORS
from repro.service.server import MAX_LINE_BYTES
from repro.utils.serialization import canonical_json

__all__ = [
    "ServiceClient",
    "Reply",
    "SessionReport",
    "LoadgenReport",
    "run_loadgen",
    "percentile",
]


@dataclass(frozen=True)
class Reply:
    """One completed request: the terminator row plus streamed decision rows."""

    event: dict
    decisions: tuple = ()


class ServiceClient:
    """Blocking request/response client of the service control protocol."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # -- transport -----------------------------------------------------------------

    def send_line(self, line: str) -> None:
        """Write one raw NDJSON line."""
        self._file.write((line + "\n").encode("utf-8"))
        self._file.flush()

    def read_row(self) -> dict:
        """Read one response line as a dict.

        Raises :class:`ServiceError` naming the cause when the connection is
        closed, the line is longer than ``MAX_LINE_BYTES`` (the server's own
        limit; the rest of the line is skipped, so the next read starts on a
        line boundary), the connection closed mid-line, or the line is not a
        JSON object.
        """
        raw = self._file.readline(MAX_LINE_BYTES + 1)
        if not raw.endswith(b"\n"):
            if not raw:
                raise ServiceError("server closed the connection")
            if len(raw) <= MAX_LINE_BYTES:
                raise ServiceError(
                    f"server closed the connection mid-line after {len(raw)} bytes"
                )
            while raw and not raw.endswith(b"\n"):
                raw = self._file.readline(MAX_LINE_BYTES + 1)
            raise ServiceError(f"response line longer than {MAX_LINE_BYTES} bytes")
        try:
            row = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ServiceError(f"response line is not JSON: {exc}") from None
        if not isinstance(row, dict):
            raise ServiceError(
                f"response line is a JSON {type(row).__name__}, not an object"
            )
        return row

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- control ops ---------------------------------------------------------------

    def request(self, op: str, session: "str | None" = None, **fields: Any) -> Reply:
        """Send one control message; collect decisions until the terminator.

        An ``error`` response raises :class:`ServiceError` with the server's
        message.  ``throttled`` (flow control, not an error) terminates a
        ``submit`` like ``accepted`` does — callers check ``reply.event``.
        """
        row: dict[str, Any] = {"op": op, "v": PROTOCOL_VERSION, **fields}
        if session is not None:
            row["session"] = session
        self.send_line(canonical_json(row))
        terminator = TERMINATORS[op]
        decisions: list[dict] = []
        while True:
            response = self.read_row()
            event = response.get("event")
            if event == "decision":
                decisions.append(response)
                continue
            if event == "error":
                raise ServiceError(response.get("error", "unknown service error"))
            if event == terminator or (op == "submit" and event == "throttled"):
                return Reply(event=response, decisions=tuple(decisions))
            raise ServiceError(
                f"protocol violation: expected {terminator!r} terminating {op!r}, "
                f"got {event!r}"
            )

    def hello(self) -> dict:
        return self.request("hello").event

    def create(self, name: str, **options: Any) -> dict:
        """Create a named session (options: algorithm, machines, alpha,
        dispatch, params, max_pending)."""
        clean = {k: v for k, v in options.items() if v is not None}
        return self.request("create", name, **clean).event

    def submit(self, name: str, jobs: Sequence[Mapping[str, Any]]) -> dict:
        """Submit job rows; the reply is ``accepted`` or ``throttled``."""
        return self.request("submit", name, jobs=list(jobs)).event

    def poll(self, name: str) -> Reply:
        return self.request("poll", name)

    def advance(self, name: str, t: float) -> Reply:
        return self.request("advance", name, t=t)

    def snapshot(self, name: str) -> dict:
        return self.request("snapshot", name).event["snapshot"]

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict:
        return self.request("restore", name, snapshot=dict(snapshot)).event

    def close_session(self, name: str) -> Reply:
        """Close a session; the terminator is its ``final`` summary row."""
        return self.request("close", name)

    def stats(self, name: str) -> dict:
        """Live counters of a hosted session (backlog, submitted/completed/
        rejected, last-event time; adaptive sessions add switch state and
        telemetry).  Read-only — never advances the simulation."""
        return self.request("stats", name).event["stats"]

    def sessions(self) -> list[dict]:
        return list(self.request("sessions").event["sessions"])

    def shutdown(self) -> dict:
        return self.request("shutdown").event


# --------------------------------------------------------------------------------------
# Load generation
# --------------------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class SessionReport:
    """What one loadgen worker did to one session."""

    session: str
    scenario: str
    jobs: int
    decisions: int = 0
    throttled: int = 0
    elapsed: float = 0.0
    #: Per-chunk submit->polled round-trip latencies, seconds.
    latencies: list = field(default_factory=list)
    final_row: "dict | None" = None
    #: Last ``stats`` observation before close (live-session observability).
    last_stats: "dict | None" = None
    #: ``True``/``False`` after a verify pass; ``None`` when verification off.
    matches_batch: "bool | None" = None
    error: "str | None" = None

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "session": self.session,
            "scenario": self.scenario,
            "jobs": self.jobs,
            "decisions": self.decisions,
            "throttled": self.throttled,
            "elapsed_s": self.elapsed,
            "latency_p50_ms": percentile(self.latencies, 50.0) * 1e3,
            "latency_p99_ms": percentile(self.latencies, 99.0) * 1e3,
        }
        if self.last_stats is not None:
            row["stats"] = self.last_stats
        if self.matches_batch is not None:
            row["matches_batch"] = self.matches_batch
        if self.error is not None:
            row["error"] = self.error
        return row


@dataclass
class LoadgenReport:
    """Aggregate of one :func:`run_loadgen` run."""

    sessions: list
    elapsed: float
    total_jobs: int
    total_decisions: int
    total_throttled: int
    throughput_jobs_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    verified: "int | None" = None

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "sessions": len(self.sessions),
            "elapsed_s": self.elapsed,
            "total_jobs": self.total_jobs,
            "total_decisions": self.total_decisions,
            "total_throttled": self.total_throttled,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
        }
        if self.verified is not None:
            row["verified"] = self.verified
        row["per_session"] = [report.as_dict() for report in self.sessions]
        return row


def _strip_wire_fields(row: Mapping[str, Any]) -> dict[str, Any]:
    """Drop the envelope keys (``event``, ``session``) off a final line row."""
    return {k: v for k, v in row.items() if k not in ("event", "session")}


def _drive_session(
    report: SessionReport,
    host: str,
    port: int,
    *,
    instance,
    alpha: float,
    algorithm: str,
    dispatch: "str | None",
    params: Mapping[str, Any],
    chunk_size: int,
    rate: "float | None",
    verify: bool,
    timeout: float,
) -> None:
    """Worker body: one connection, one session, one scenario stream."""
    jobs = list(instance.jobs)
    interval = (chunk_size / rate) if rate else 0.0
    with ServiceClient(host, port, timeout=timeout) as client:
        client.create(
            report.session,
            algorithm=algorithm,
            machines=instance.num_machines,
            alpha=alpha,
            dispatch=dispatch,
            params=dict(params) or None,
        )
        started = time.perf_counter()
        next_send = started
        for offset in range(0, len(jobs), chunk_size):
            if interval:
                delay = next_send - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                next_send += interval
            rows = [job.to_dict() for job in jobs[offset : offset + chunk_size]]
            t0 = time.perf_counter()
            while True:
                reply = client.submit(report.session, rows)
                if reply.get("event") != "throttled":
                    break
                if len(rows) > reply.get("max_pending", len(rows)):
                    raise ServiceError(
                        f"chunk of {len(rows)} jobs exceeds the session's "
                        f"max_pending={reply['max_pending']}; no poll can make "
                        "it acceptable — use a smaller --chunk-size"
                    )
                # Flow control: drain the offer queue, then retry the batch.
                report.throttled += 1
                report.decisions += len(client.poll(report.session).decisions)
            polled = client.poll(report.session)
            report.latencies.append(time.perf_counter() - t0)
            report.decisions += len(polled.decisions)
        report.last_stats = client.stats(report.session)
        final = client.close_session(report.session)
        report.decisions += len(final.decisions)
        report.elapsed = time.perf_counter() - started
        report.final_row = _strip_wire_fields(final.event)
    if verify:
        from repro.solvers.facade import solve

        batch = solve(instance, algorithm, dispatch=dispatch, **dict(params))
        report.matches_batch = canonical_json(report.final_row) == canonical_json(
            batch.as_row()
        )


def run_loadgen(
    host: str,
    port: int,
    *,
    sessions: int = 4,
    jobs: int = 256,
    machines: int = 4,
    seed: int = 2018,
    alpha: float = 3.0,
    algorithm: str = "rejection-flow",
    dispatch: "str | None" = None,
    params: "Mapping[str, Any] | None" = None,
    scenarios: "Sequence[str] | None" = None,
    chunk_size: int = 32,
    rate: "float | None" = None,
    verify: bool = False,
    timeout: float = 120.0,
) -> LoadgenReport:
    """Drive ``sessions`` concurrent scenario streams against a running server.

    Session ``i`` streams scenario ``scenarios[i % len]`` (the whole catalog
    by default) with seed ``seed + i`` in chunks of ``chunk_size`` jobs,
    optionally paced to ``rate`` jobs/second.  Each worker thread owns its
    own connection and named session (``lg-000``, ``lg-001``, ...).  With
    ``verify=True`` every final summary is compared byte-for-byte (canonical
    JSON) against the batch :func:`repro.solve` of the identical instance.

    Raises :class:`ServiceError` if any worker failed; otherwise every
    report has its ``final_row``.
    """
    if sessions <= 0:
        raise ServiceError(f"sessions must be positive, got {sessions}")
    if chunk_size <= 0:
        raise ServiceError(f"chunk_size must be positive, got {chunk_size}")
    from repro.workloads.scenarios import SCENARIOS, get_scenario

    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    catalog = [get_scenario(name) for name in names]
    params = dict(params or {})

    reports: list[SessionReport] = []
    workers: list[threading.Thread] = []
    started = time.perf_counter()
    for i in range(sessions):
        scenario = catalog[i % len(catalog)]
        instance = scenario.instance(jobs, machines, seed + i, alpha=alpha)
        report = SessionReport(
            session=f"lg-{i:03d}", scenario=scenario.name, jobs=len(instance.jobs)
        )
        reports.append(report)

        def _worker(report=report, instance=instance) -> None:
            try:
                _drive_session(
                    report,
                    host,
                    port,
                    instance=instance,
                    alpha=alpha,
                    algorithm=algorithm,
                    dispatch=dispatch,
                    params=params,
                    chunk_size=chunk_size,
                    rate=rate,
                    verify=verify,
                    timeout=timeout,
                )
            except Exception as exc:  # noqa: BLE001 - reported, then re-raised below
                report.error = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(target=_worker, name=report.session, daemon=True)
        workers.append(thread)
        thread.start()
    for thread in workers:
        thread.join()
    elapsed = time.perf_counter() - started

    failures = [r for r in reports if r.error is not None]
    if failures:
        details = "; ".join(f"{r.session}: {r.error}" for r in failures[:5])
        raise ServiceError(
            f"{len(failures)}/{len(reports)} loadgen sessions failed ({details})"
        )
    all_latencies = [x for r in reports for x in r.latencies]
    total_jobs = sum(r.jobs for r in reports)
    return LoadgenReport(
        sessions=reports,
        elapsed=elapsed,
        total_jobs=total_jobs,
        total_decisions=sum(r.decisions for r in reports),
        total_throttled=sum(r.throttled for r in reports),
        throughput_jobs_per_s=(total_jobs / elapsed) if elapsed > 0 else 0.0,
        latency_p50_ms=percentile(all_latencies, 50.0) * 1e3,
        latency_p99_ms=percentile(all_latencies, 99.0) * 1e3,
        verified=sum(1 for r in reports if r.matches_batch) if verify else None,
    )
