"""Picklable shard-solve tasks, their artifact keys, and payload builders.

A :class:`ShardTask` is the unit of work :func:`repro.parallel.shard_solve`
fans out over worker processes: one shard's job sub-stream plus its local
machine group, everything plain tuples/arrays so :mod:`multiprocessing` can
pickle it.  :func:`run_shard_task` (module-level, pickled by reference) opens
a :class:`~repro.service.session.SchedulerSession` over the shard's local
fleet, streams the chunks in, finalizes, and returns the shard's
content-addressed artifact payload.

Payload discipline mirrors :mod:`repro.campaigns.tasks`: canonical-JSON
friendly values only, no wall-clock timings (those stay in run summaries so
artifacts are byte-reproducible), and machine ids remapped back to *global*
ids inside the worker — the coordinator's merge is then a pure interleave.
Artifact keys hash the semantic coordinates (source fingerprint, algorithm,
validated params, shard layout) and deliberately exclude the dispatch mode:
the two dispatch modes are byte-equivalent (CI enforces this via the
campaign cache-hit gate), so they share cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.service.session import open_session
from repro.simulation.machine import Machine
from repro.simulation.metrics import rejected_weight
from repro.solvers.outcome import SolveOutcome
from repro.utils.serialization import jsonify, stable_hash
from repro.workloads.generators import JobChunk

PARALLEL_SCHEMA_VERSION = 1

__all__ = [
    "PARALLEL_SCHEMA_VERSION",
    "ShardTask",
    "artifact_keys",
    "run_shard_task",
    "shard_payload",
]


@dataclass(frozen=True)
class ShardTask:
    """One shard's solve, self-contained and picklable.

    ``machines`` carries ``(speed_factor, alpha)`` per *local* machine; the
    worker rebuilds the fleet with consecutive local ids (the
    :class:`~repro.simulation.instance.Instance` invariant) and
    ``machine_group`` maps local id → global id when the decision stream is
    serialised.  ``params`` is the validated parameter dict as sorted items,
    hashable and pickle-stable.
    """

    shard: int
    num_shards: int
    algorithm: str
    params: tuple[tuple[str, Any], ...]
    dispatch: str | None
    machine_group: tuple[int, ...]
    machines: tuple[tuple[float, float], ...]
    chunks: tuple[JobChunk, ...]


def artifact_keys(
    fingerprint: str,
    algorithm: str,
    params: Mapping[str, Any],
    num_shards: int,
    partition: str,
) -> tuple[list[str], str]:
    """Content-addressed keys for the per-shard payloads and the merged one.

    Returns ``(shard_keys, merged_key)``.  Keys are a pure function of the
    semantic coordinates — notably *not* of ``workers`` (pure fan-out width)
    or ``dispatch`` (byte-equivalent backends) — so re-runs under different
    parallelism hit the same cache entries.
    """
    base = {
        "schema": PARALLEL_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "algorithm": algorithm,
        "params": jsonify(dict(params)),
        "num_shards": num_shards,
        "partition": partition,
    }
    shard_keys = [
        stable_hash({**base, "kind": "shard", "shard": shard})
        for shard in range(num_shards)
    ]
    merged_key = stable_hash({**base, "kind": "merged"})
    return shard_keys, merged_key


def shard_payload(
    *,
    shard: int,
    num_shards: int,
    machine_group: Sequence[int],
    outcome: SolveOutcome,
    events: Sequence,
) -> dict:
    """Build one shard's artifact payload from its finalized session.

    ``totals`` keeps the *raw* accounting terms (job count, rejected count,
    rejected weight, total weight) so the merged artifact can recompute the
    rejection fractions from summed numerators/denominators — at ``k == 1``
    those are the very divisions :mod:`repro.simulation.metrics` performed,
    which is what makes the merged row byte-identical to the plain one.
    """
    group = [int(machine) for machine in machine_group]
    stream = []
    for event in events:
        data = event.as_dict()
        if data["machine"] is not None:
            data["machine"] = group[data["machine"]]
        data["shard"] = shard
        stream.append(data)
    result = outcome.result
    records = result.records.values()
    totals = {
        "num_jobs": len(result.records),
        "rejected_count": outcome.rejected_count,
        "rejected_weight": rejected_weight(result),
        "total_weight": sum(record.weight for record in records),
    }
    return {
        "schema": PARALLEL_SCHEMA_VERSION,
        "kind": "shard",
        "shard": shard,
        "num_shards": num_shards,
        "machine_group": group,
        "num_jobs": len(result.records),
        "engine_events": int(result.extras.get("events", 0)),
        "row": jsonify(outcome.as_row()),
        "totals": jsonify(totals),
        "events": jsonify(stream),
    }


def run_shard_task(task: ShardTask) -> dict:
    """Worker entry point: solve one shard, return its artifact payload.

    Module-level so the campaign fan-out
    (:func:`repro.campaigns.runner.run_mapped`) can pickle it by reference.
    Workers only compute — the coordinator persists payloads, preserving the
    artifact store's single-writer invariant.
    """
    fleet = tuple(
        Machine(id=local, speed_factor=speed, alpha=alpha)
        for local, (speed, alpha) in enumerate(task.machines)
    )
    session = open_session(
        task.algorithm,
        fleet,
        dispatch=task.dispatch,
        name=f"shard-{task.shard}-of-{task.num_shards}",
        retain_events=True,
        **dict(task.params),
    )
    for chunk in task.chunks:
        session.submit_many(chunk)
    outcome = session.finalize()
    return shard_payload(
        shard=task.shard,
        num_shards=task.num_shards,
        machine_group=task.machine_group,
        outcome=outcome,
        events=session.events,
    )
