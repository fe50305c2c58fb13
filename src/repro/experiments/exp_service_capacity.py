"""E15 — service capacity: concurrent sessions, decisions and byte-identity.

E13 measured one streaming session against the batch facade; E14 swept
solvers across the scenario catalog.  E15 asks the *service* question the
multi-session subsystem exists to answer: how many concurrent tenant
sessions can one server host **without** ever compromising determinism?

Each row boots a loopback :mod:`repro.service.server` on its own thread,
drives ``sessions`` concurrent scenario streams through it with the
``repro loadgen`` harness (one thread + TCP connection + named session
each, chunked submit/poll round trips), and records the deterministic
outcome of the scheduling itself — total decision events, the summed
objective value across sessions, rejected-job counts, backpressure
refusals, and ``verified``: how many sessions finalized **byte-identical**
to the batch :func:`repro.solve` of the same instance (the service's core
correctness claim — concurrency must never change a schedule).  Throughput
and latency belong to the host, not the config: ``repro loadgen`` reports
them for a live server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ExperimentTable
from repro.experiments.registry import ExperimentResult

#: Default ladder of concurrent session counts (the capacity sweep).
DEFAULT_SESSION_COUNTS = (1, 4, 16, 32)


@dataclass
class ServiceCapacityConfig:
    """Sweep parameters of experiment E15."""

    session_counts: tuple[int, ...] = DEFAULT_SESSION_COUNTS
    jobs_per_session: int = 200
    num_machines: int = 4
    epsilon: float = 0.5
    alpha: float = 3.0
    seed: int = 2018
    algorithm: str = "rejection-flow"
    #: Catalog scenarios cycled across sessions; empty tuple = the whole catalog.
    scenarios: tuple[str, ...] = ()
    #: Jobs per submit round trip (must stay <= max_pending).
    chunk_size: int = 32
    #: Per-session offer-queue bound (the backpressure limit).
    max_pending: int = 4096
    #: Compare every session's final summary byte-for-byte with batch solve.
    verify: bool = True


COLUMNS = (
    "sessions",
    "jobs_total",
    "decisions",
    "objective_sum",
    "rejected_jobs",
    "verified",
    "throttled",
)


def _run_row(config: ServiceCapacityConfig, sessions: int) -> dict:
    """One capacity row: a fresh loopback server driven by ``sessions`` streams."""
    from repro.service.client import run_loadgen
    from repro.service.server import start_server_thread

    params = {"epsilon": config.epsilon}
    with start_server_thread(max_pending=config.max_pending) as handle:
        report = run_loadgen(
            handle.host,
            handle.port,
            sessions=sessions,
            jobs=config.jobs_per_session,
            machines=config.num_machines,
            seed=config.seed,
            alpha=config.alpha,
            algorithm=config.algorithm,
            params=params,
            scenarios=config.scenarios or None,
            chunk_size=config.chunk_size,
            verify=config.verify,
        )
    # Added left to right from the int 0: Python 3.12's compensated ``sum``
    # would give other bits than 3.10 and 3.11.
    objective_sum = 0
    for r in report.sessions:
        objective_sum += r.final_row["objective_value"]
    rejected = sum(r.final_row["rejected_count"] for r in report.sessions)
    return {
        "sessions": sessions,
        "jobs_total": report.total_jobs,
        "decisions": report.total_decisions,
        "objective_sum": objective_sum,
        "rejected_jobs": rejected,
        "verified": report.verified if config.verify else "",
        "throttled": report.total_throttled,
    }


def run(config: ServiceCapacityConfig) -> ExperimentResult:
    """Run experiment E15 and return the service-capacity table."""
    if config.chunk_size > config.max_pending:
        raise ValueError(
            f"chunk_size={config.chunk_size} exceeds max_pending="
            f"{config.max_pending}; every submission would be throttled forever"
        )
    rows = [_run_row(config, sessions) for sessions in config.session_counts]

    table = ExperimentTable(
        title="E15: service capacity (concurrent sessions x byte-identity)",
        columns=COLUMNS,
    )
    for row in rows:
        table.add_row(row)
    table.add_note(
        "Each row is one loopback server instance driven by N concurrent "
        "loadgen sessions (one thread + connection + named session each). "
        "verified counts sessions whose final summary is byte-identical to "
        "the batch repro.solve of the same instance."
    )
    return ExperimentResult(
        experiment_id="E15",
        title="service capacity: concurrent sessions, decisions, byte-identity",
        tables=[table],
        raw={
            "algorithm": config.algorithm,
            "session_counts": list(config.session_counts),
            "jobs_per_session": config.jobs_per_session,
            "chunk_size": config.chunk_size,
            "max_pending": config.max_pending,
            "rows": rows,
        },
    )
