"""Campaign tasks: one (experiment × variant × seed) cell of a campaign grid.

A :class:`CampaignTask` is pure picklable data.  :func:`run_task` turns
one into a JSON artifact payload, and :func:`result_from_payload` rebuilds an
:class:`~repro.experiments.registry.ExperimentResult` from a stored payload,
so reports can be regenerated without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis.reporting import ExperimentTable
from repro.experiments.registry import ExperimentResult, run_experiment
from repro.utils.serialization import jsonify, stable_hash, tuplify

#: Bump when the payload schema changes; part of the artifact key so stale
#: artifacts are recomputed instead of misread.
ARTIFACT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class CampaignTask:
    """One runnable cell of a campaign grid.

    ``overrides`` holds the config overrides as sorted ``(name, value)``
    pairs (hashable, picklable); ``seed`` is ``None`` for experiments whose
    config has no ``seed`` knob (deterministic constructions such as E2/E5).
    """

    experiment_id: str
    variant: str
    seed: int | None
    overrides: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        experiment_id: str,
        variant: str = "default",
        seed: int | None = None,
        overrides: Mapping[str, Any] | None = None,
    ) -> "CampaignTask":
        """Build a task, normalising overrides to sorted hashable items.

        List values (e.g. from a JSON round trip through the artifact store)
        become tuples, so a task rebuilt via :func:`task_from_payload`
        compares and hashes equal to the one that produced the payload.
        """
        items = tuple(
            sorted((name, tuplify(value)) for name, value in (overrides or {}).items())
        )
        return cls(
            experiment_id=experiment_id.upper(),
            variant=variant,
            seed=seed,
            overrides=items,
        )

    @property
    def label(self) -> str:
        """Human-readable task id, e.g. ``E1/default/s2018``."""
        seed_part = f"s{self.seed}" if self.seed is not None else "det"
        return f"{self.experiment_id}/{self.variant}/{seed_part}"

    def effective_overrides(self) -> dict[str, Any]:
        """The overrides actually applied, with the per-task seed folded in."""
        overrides = dict(self.overrides)
        if self.seed is not None:
            overrides["seed"] = self.seed
        return overrides

    def key(self) -> str:
        """Content-addressed artifact key: a hash of everything that shapes
        the result (experiment, config overrides, payload schema version)."""
        return stable_hash(
            {
                "schema": ARTIFACT_SCHEMA_VERSION,
                "experiment": self.experiment_id,
                "overrides": self.effective_overrides(),
            }
        )


def run_task(task: CampaignTask) -> dict:
    """Execute ``task`` and return its JSON artifact payload."""
    result = run_experiment(task.experiment_id, **task.effective_overrides())
    return payload_from_result(task, result)


def payload_from_result(task: CampaignTask, result: ExperimentResult) -> dict:
    """Encode an experiment result as a plain-JSON artifact payload."""
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "key": task.key(),
        "task": {
            "experiment_id": task.experiment_id,
            "variant": task.variant,
            "seed": task.seed,
            "overrides": jsonify(dict(task.overrides)),
        },
        "result": {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "tables": [
                {
                    "title": table.title,
                    "columns": list(table.columns),
                    "rows": jsonify(table.rows),
                    "notes": list(table.notes),
                }
                for table in result.tables
            ],
            "raw": jsonify(result.raw),
        },
    }


def result_from_payload(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a stored artifact payload."""
    encoded = payload["result"]
    tables = [
        ExperimentTable(
            title=t["title"],
            columns=tuple(t["columns"]),
            rows=[dict(row) for row in t["rows"]],
            notes=list(t["notes"]),
        )
        for t in encoded["tables"]
    ]
    return ExperimentResult(
        experiment_id=encoded["experiment_id"],
        title=encoded["title"],
        tables=tables,
        raw=encoded["raw"],
    )


def task_from_payload(payload: dict) -> CampaignTask:
    """Rebuild the originating task from a stored artifact payload."""
    encoded = payload["task"]
    return CampaignTask.create(
        experiment_id=encoded["experiment_id"],
        variant=encoded["variant"],
        seed=encoded["seed"],
        overrides=encoded["overrides"],
    )
