"""The workloads and their seeded inputs.

Inputs are pure in ``(workload, seed)``: the catalog scenario is generated
with a seed derived from the benchmark seed and written with
``repro.workloads.traces.write_trace`` before any timed run.  They are cached
under ``.perfbench_cache/inputs`` so repeated runs of one seed reuse the files;
the cache key includes every parameter of the input, so changing a workload
below can never pick up a stale file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from benchenv import CACHE, import_program


@dataclass(frozen=True)
class BatchSpec:
    """A batch workload: one trace file, solved through ``repro.solve``."""

    scenario: str
    jobs: int
    machines: int
    fmt: str
    algorithm: str
    epsilon: float
    #: Reference seconds of one pass, which turns ``--seconds`` into a pass count.
    nominal_pass_s: float


@dataclass(frozen=True)
class ServiceSpec:
    """The streaming workload: sessions of one scenario over one connection."""

    scenario: str
    jobs: int
    machines: int
    algorithm: str
    epsilon: float
    chunk: int
    #: Distinct session inputs per seed; longer runs cycle through them.
    distinct_sessions: int
    #: Sessions every run completes, whatever ``--seconds`` says: 4 x 250
    #: round trips puts at least 10 samples beyond the p99.
    min_sessions: int
    #: Reference seconds of one session, which turns ``--seconds`` into a
    #: session count.
    nominal_session_s: float


WORKLOADS: dict[str, "BatchSpec | ServiceSpec"] = {
    "flash-trace": BatchSpec(
        scenario="flash-crowd",
        jobs=20_000,
        machines=8,
        fmt="csv",
        algorithm="rejection-flow",
        epsilon=0.1,
        nominal_pass_s=2.5,
    ),
    "tenant-service": ServiceSpec(
        scenario="multi-tenant-mix",
        jobs=8_000,
        machines=8,
        algorithm="rejection-flow",
        epsilon=0.5,
        chunk=32,
        distinct_sessions=8,
        min_sessions=4,
        nominal_session_s=1.7,
    ),
}


def _cached_trace(workload: str, tag: str, scenario: str, jobs: int, machines: int,
                  seed: int, fmt: str) -> Path:
    key = json.dumps([workload, tag, scenario, jobs, machines, seed, fmt])
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    path = CACHE / "inputs" / f"{workload}-{tag}-{digest}.{fmt}"
    if not path.is_file():
        import_program()
        from repro.workloads.scenarios import get_scenario
        from repro.workloads.traces import write_trace

        write_trace(get_scenario(scenario).job_chunks(jobs, machines, seed), path, fmt)
    return path


def batch_input(workload: str, seed: int) -> Path:
    """The trace file of a batch workload for ``seed``."""
    spec = WORKLOADS[workload]
    return _cached_trace(workload, f"s{seed}", spec.scenario, spec.jobs, spec.machines,
                         seed, spec.fmt)


def session_inputs(workload: str, seed: int, count: int) -> list[Path]:
    """NDJSON job traces of the first ``count`` distinct sessions for ``seed``."""
    spec = WORKLOADS[workload]
    return [
        _cached_trace(workload, f"s{seed}-{i}", spec.scenario, spec.jobs, spec.machines,
                      1000 * seed + i, "ndjson")
        for i in range(count)
    ]


def operations(workload: str, seconds: int) -> int:
    """Passes (batch) or sessions (service) a run of ``seconds`` makes.

    The count depends on ``--seconds`` only, never on how fast this run goes,
    so two versions of the program compared on one setting do the same work.
    """
    spec = WORKLOADS[workload]
    if isinstance(spec, BatchSpec):
        return max(3, round(seconds / spec.nominal_pass_s))
    return max(spec.min_sessions, round(seconds / spec.nominal_session_s))


def describe(workload: str) -> dict:
    return {"workload": workload, **asdict(WORKLOADS[workload])}
