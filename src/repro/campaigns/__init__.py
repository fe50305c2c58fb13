"""Experiment campaigns with a cached artifact store.

This package scales the experiment suite from "run E1–E10 sequentially and
print tables" to re-runnable (experiment × variant × seed × algorithm) grids:

* :mod:`~repro.campaigns.grids` names deterministic task grids;
* :mod:`~repro.campaigns.tasks` defines tasks and their content-addressed
  artifact keys;
* :mod:`~repro.campaigns.store` persists one canonical-JSON artifact per
  task in a directory, written atomically;
* :mod:`~repro.campaigns.runner` runs a grid in this process, computing
  only the tasks whose artifacts are missing (:func:`run_campaign`), so a
  re-run is all cache hits and an interrupted run resumes where it stopped;
* :mod:`~repro.campaigns.aggregate` merges artifacts into report tables and
  CSV exports without re-running anything.

See docs/ARCHITECTURE.md for the data-flow diagram and the ``repro
campaign`` CLI for the user-facing entry point.
"""

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
from repro.campaigns.runner import CampaignRunSummary, TaskOutcome, run_campaign
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
    "DEFAULT_MASTER_SEED",
    "GRIDS",
    "GridEntry",
    "TaskOutcome",
    "aggregate_tables",
    "algorithm_axis",
    "available_grids",
    "diff_stores",
    "export_csv",
    "get_grid",
    "payload_from_result",
    "render_campaign_report",
    "result_from_payload",
    "run_campaign",
    "run_task",
    "summary_table",
    "table_to_csv",
    "task_from_payload",
]
