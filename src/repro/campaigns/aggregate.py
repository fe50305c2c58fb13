"""Aggregate stored campaign artifacts into report tables and CSV exports.

Aggregation is a pure function of the artifact store contents and the task
list: tasks are processed in sorted label order and every value comes from
the stored payloads, so a cold run and a cached re-run render identical
reports.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path
from typing import Sequence

from repro.analysis.reporting import ExperimentTable, render_report
from repro.campaigns.store import ArtifactStore
from repro.campaigns.tasks import CampaignTask, result_from_payload

SUMMARY_COLUMNS = ("task", "experiment", "variant", "seed", "artifact", "table_rows")


def aggregate_tables(
    store: ArtifactStore, tasks: Sequence[CampaignTask]
) -> list[ExperimentTable]:
    """Merge the artifacts of ``tasks`` into per-experiment tables.

    Tasks of one experiment share their table schema; the merged table gains
    leading ``variant``/``seed`` columns identifying the grid cell each row
    came from.  Raises if any task's artifact is missing — run the campaign
    (or the missing tasks) first.
    """
    ordered = sorted(tasks, key=lambda task: (task.experiment_id, task.variant, task.label))
    merged: dict[tuple[str, str], ExperimentTable] = {}
    for task in ordered:
        payload = store.load(task.key())
        result = result_from_payload(payload)
        for table in result.tables:
            slot = (task.experiment_id, table.title)
            target = merged.get(slot)
            if target is None:
                target = ExperimentTable(
                    title=f"{table.title} [campaign]",
                    columns=("variant", "seed") + tuple(table.columns),
                )
                for note in table.notes:
                    target.add_note(note)
                merged[slot] = target
            seed_cell = task.seed if task.seed is not None else "-"
            for row in table.rows:
                target.add_row({"variant": task.variant, "seed": seed_cell, **row})
    return [merged[slot] for slot in sorted(merged)]


def summary_table(outcomes) -> ExperimentTable:
    """Per-task campaign summary (cached vs computed) as a report table."""
    table = ExperimentTable(
        title="campaign task summary",
        columns=("task", "status", "artifact", "duration_s"),
    )
    for outcome in sorted(outcomes, key=lambda o: o.task.label):
        table.add_row(
            {
                "task": outcome.task.label,
                "status": "cached" if outcome.cached else "computed",
                "artifact": outcome.key,
                "duration_s": (
                    outcome.duration_s if outcome.duration_s is not None else "-"
                ),
            }
        )
    return table


def render_campaign_report(
    store: ArtifactStore, tasks: Sequence[CampaignTask], header: str | None = None
) -> str:
    """Render the aggregated campaign tables as one report string."""
    return render_report(aggregate_tables(store, tasks), header=header)


def _slug(text: str) -> str:
    return re.sub(r"-+", "-", re.sub(r"[^a-z0-9]+", "-", text.lower())).strip("-")


def table_to_csv(table: ExperimentTable) -> str:
    """Serialise one table as CSV text (header row + data rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([row[col] for col in table.columns])
    return buffer.getvalue()


def export_csv(tables: Sequence[ExperimentTable], directory: "str | Path") -> list[Path]:
    """Write every table as ``<slug(title)>.csv`` under ``directory``."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for table in tables:
        path = out_dir / f"{_slug(table.title)}.csv"
        path.write_text(table_to_csv(table), encoding="utf-8")
        written.append(path)
    return written
