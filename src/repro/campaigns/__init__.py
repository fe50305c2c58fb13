"""Parallel experiment campaigns with a cached artifact store.

This package scales the experiment suite from "run E1–E10 sequentially and
print tables" to re-runnable (experiment × variant × seed × algorithm) grids:

* :mod:`~repro.campaigns.grids` names deterministic task grids;
* :mod:`~repro.campaigns.tasks` defines picklable tasks and their
  content-addressed artifact keys;
* :mod:`~repro.campaigns.backends` is the pluggable blob layer: filesystem,
  sqlite (object-store-shaped) and in-memory backends behind one
  :class:`StoreBackend` contract with atomic conditional puts;
* :mod:`~repro.campaigns.store` persists one canonical-JSON artifact per
  task on any backend;
* :mod:`~repro.campaigns.distributed` runs every grid as lease workers:
  any number of worker processes (or hosts) sharing one backend execute it
  cooperatively via lease-based work stealing, skip everything already in
  the store (resumability) and recover from crashed peers, with
  byte-identical results (:func:`run_campaign` is the entry point);
* :mod:`~repro.campaigns.aggregate` merges artifacts into report tables and
  CSV exports without re-running anything;
* :mod:`~repro.campaigns.session_replay` records streaming-session decision
  traces as content-addressed artifacts and replays them to verify the
  streaming path stays byte-deterministic.

See docs/ARCHITECTURE.md for the data-flow diagram and the ``repro
campaign`` CLI for the user-facing entry point.
"""

from repro.campaigns.backends import (
    FilesystemBackend,
    MemoryBackend,
    SQLiteBackend,
    StoreBackend,
    open_backend,
)
from repro.campaigns.aggregate import (
    aggregate_tables,
    export_csv,
    render_campaign_report,
    summary_table,
    table_to_csv,
)
from repro.campaigns.grids import (
    DEFAULT_MASTER_SEED,
    GRIDS,
    CampaignGrid,
    GridEntry,
    algorithm_axis,
    available_grids,
    get_grid,
)
from repro.campaigns.distributed import (
    DEFAULT_LEASE_TTL,
    CampaignRunSummary,
    TaskOutcome,
    gc_store,
    run_campaign,
    run_worker,
)
from repro.campaigns.session_replay import (
    TRACE_SCHEMA_VERSION,
    SessionTrace,
    record_session_trace,
    replay_session_trace,
    trace_key,
)
from repro.campaigns.store import ArtifactStore, diff_stores
from repro.campaigns.tasks import (
    ARTIFACT_SCHEMA_VERSION,
    CampaignTask,
    payload_from_result,
    result_from_payload,
    run_task,
    task_from_payload,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactStore",
    "CampaignGrid",
    "CampaignRunSummary",
    "CampaignTask",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MASTER_SEED",
    "FilesystemBackend",
    "GRIDS",
    "GridEntry",
    "MemoryBackend",
    "SQLiteBackend",
    "SessionTrace",
    "StoreBackend",
    "TRACE_SCHEMA_VERSION",
    "TaskOutcome",
    "aggregate_tables",
    "algorithm_axis",
    "available_grids",
    "diff_stores",
    "export_csv",
    "gc_store",
    "get_grid",
    "open_backend",
    "payload_from_result",
    "record_session_trace",
    "render_campaign_report",
    "replay_session_trace",
    "result_from_payload",
    "run_campaign",
    "run_task",
    "run_worker",
    "summary_table",
    "table_to_csv",
    "task_from_payload",
    "trace_key",
]
