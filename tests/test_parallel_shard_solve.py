"""Tests for the shard-and-merge parallel solver (``repro.parallel``).

Covers the determinism contract the CI ``shard-identity`` gate enforces at
trace scale — k=1 byte-identity with the batch facade, worker-count
invariance of the persisted store, cache-hit resumability, the independent
``solve_to_store`` path writing the exact k=1 artifact pair — plus the
partition/normalisation helpers, the ``repro solve --shards`` /
``repro shard-solve`` CLI, experiment E16 and the property-based
sharded-vs-batch equivalence across both dispatch modes.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_based import flow_instances

from repro.campaigns.store import ArtifactStore
from repro.cli import main
from repro.exceptions import InvalidParameterError, StreamingNotSupportedError
from repro.experiments import run_experiment
from repro.parallel import (
    machine_groups,
    normalise_source,
    restrict_chunk,
    shard_solve,
    solve_to_store,
    source_fingerprint,
)
from repro.simulation.engine import DISPATCH_MODES
from repro.solvers import solve
from repro.utils.serialization import canonical_json
from repro.workloads.generators import JobChunk
from repro.workloads.scenarios import get_scenario
from repro.workloads.traces import chunks_from_jobs, chunks_to_instance

MACHINES = 4
PARAMS = dict(epsilon=0.5)


def _scenario_chunks(num_jobs: int = 80, seed: int = 2018,
                     name: str = "multi-tenant-mix") -> list[JobChunk]:
    return list(get_scenario(name).job_chunks(num_jobs, MACHINES, seed=seed))


def _store_bytes(root: "Path | str") -> dict:
    """Every artifact file under a store root, relpath -> bytes."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# --------------------------------------------------------------------------------------
# Partition and source-normalisation helpers
# --------------------------------------------------------------------------------------


class TestPartitionHelpers:
    def test_machine_groups_strided_and_exhaustive(self):
        assert machine_groups(8, 3) == ((0, 3, 6), (1, 4, 7), (2, 5))
        assert machine_groups(4, 1) == ((0, 1, 2, 3),)
        groups = machine_groups(5, 5)
        assert sorted(m for group in groups for m in group) == list(range(5))

    def test_more_shards_than_machines_rejected(self):
        with pytest.raises(InvalidParameterError, match="every shard needs"):
            machine_groups(2, 3)
        with pytest.raises(InvalidParameterError):
            machine_groups(4, 0)

    def test_restrict_chunk_slices_columns(self):
        chunk = JobChunk(
            start=0,
            releases=np.array([0.0, 1.0]),
            sizes=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        )
        out = restrict_chunk(chunk, (0, 2), shard=0)
        assert out.sizes.tolist() == [[1.0, 3.0], [4.0, 6.0]]

    def test_restrict_chunk_rejects_infeasible_job_by_id(self):
        # Job 1 can only run on machine 0; restricting to machine 1 alone
        # leaves it with no finite size, so the partition must be refused.
        chunk = JobChunk(
            start=0,
            releases=np.array([0.0, 1.0]),
            sizes=np.array([[1.0, 1.0], [1.0, np.inf]]),
        )
        with pytest.raises(InvalidParameterError, match="job 1 has no finite size"):
            restrict_chunk(chunk, (1,), shard=1)

    def test_fingerprint_independent_of_chunking_and_entry_point(self):
        chunks = _scenario_chunks(num_jobs=40)
        norm, fleet = normalise_source(chunks, machines=MACHINES)
        rows = [(0, job) for chunk in norm for job in chunk.jobs()]
        rechunked, fleet2 = normalise_source(
            chunks_from_jobs(iter(rows), chunk_size=7), machines=MACHINES
        )
        assert source_fingerprint(norm, fleet) == source_fingerprint(rechunked, fleet2)
        instance = chunks_to_instance(chunks, machines=MACHINES)
        via_instance, inst_fleet = normalise_source(instance)
        assert source_fingerprint(via_instance, inst_fleet) == source_fingerprint(
            norm, fleet
        )

    def test_instance_source_refuses_machines_override(self):
        instance = chunks_to_instance(_scenario_chunks(num_jobs=10), machines=MACHINES)
        with pytest.raises(InvalidParameterError, match="already carries its fleet"):
            normalise_source(instance, machines=2)

    def test_width_fleet_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError, match="per-machine sizes"):
            normalise_source(_scenario_chunks(num_jobs=10), machines=MACHINES + 1)


# --------------------------------------------------------------------------------------
# shard_solve: the determinism contract
# --------------------------------------------------------------------------------------


class TestShardSolve:
    @pytest.fixture(scope="class")
    def chunks(self):
        return _scenario_chunks()

    def test_k1_row_byte_identical_to_batch_solve(self, chunks):
        sharded = shard_solve(chunks, "rejection-flow", 1, machines=MACHINES, **PARAMS)
        batch = solve(
            chunks_to_instance(chunks, machines=MACHINES), "rejection-flow", **PARAMS
        )
        assert canonical_json(sharded.row) == canonical_json(batch.as_row())

    def test_objective_accounting_sums_exactly(self, chunks):
        result = shard_solve(chunks, "rejection-flow", 4, machines=MACHINES, **PARAMS)
        assert result.objective_value == sum(result.shard_objectives)
        assert result.row["rejected_count"] == sum(
            row["rejected_count"] for row in result.shard_rows
        )
        assert result.num_jobs == len(chunks_to_instance(chunks, machines=MACHINES).jobs)

    def test_merged_events_time_ordered_and_cover_every_job(self, chunks):
        result = shard_solve(chunks, "rejection-flow", 4, machines=MACHINES, **PARAMS)
        times = [event["time"] for event in result.events]
        assert times == sorted(times)
        jobs_seen = {event["job_id"] for event in result.events}
        assert jobs_seen == set(range(result.num_jobs))
        # Events name machines by their *global* ids and carry their shard.
        shards_seen = {event["shard"] for event in result.events}
        assert shards_seen == set(range(4))
        machines_seen = {
            event["machine"] for event in result.events
            if event["machine"] is not None
        }
        assert machines_seen <= set(range(MACHINES))

    def test_worker_count_never_changes_store_bytes(self, chunks, tmp_path):
        for workers in (1, 2):
            shard_solve(
                chunks, "rejection-flow", 4, machines=MACHINES, workers=workers,
                store=tmp_path / f"w{workers}", **PARAMS,
            )
        assert _store_bytes(tmp_path / "w1") == _store_bytes(tmp_path / "w2")

    def test_rerun_is_a_full_cache_hit(self, chunks, tmp_path):
        store = tmp_path / "store"
        first = shard_solve(
            chunks, "rejection-flow", 4, machines=MACHINES, store=store, **PARAMS
        )
        assert first.cached == (False,) * 4 and not first.merged_cached
        again = shard_solve(
            chunks, "rejection-flow", 4, machines=MACHINES, store=store, **PARAMS
        )
        assert again.cached == (True,) * 4 and again.merged_cached
        assert again.durations == (None,) * 4
        assert canonical_json(again.payload) == canonical_json(first.payload)

    def test_plain_solve_to_store_writes_the_k1_artifacts(self, chunks, tmp_path):
        plain = solve_to_store(
            chunks, "rejection-flow", store=tmp_path / "plain",
            machines=MACHINES, **PARAMS,
        )
        k1 = shard_solve(
            chunks, "rejection-flow", 1, machines=MACHINES,
            store=tmp_path / "k1", **PARAMS,
        )
        assert plain.merged_key == k1.merged_key
        assert plain.shard_keys == k1.shard_keys
        assert _store_bytes(tmp_path / "plain") == _store_bytes(tmp_path / "k1")

    def test_dispatch_modes_byte_equivalent(self, chunks):
        payloads = [
            canonical_json(
                shard_solve(
                    chunks, "rejection-flow", 2, machines=MACHINES,
                    dispatch=mode, **PARAMS,
                ).payload
            )
            for mode in DISPATCH_MODES
        ]
        assert payloads[0] == payloads[1]

    def test_partition_modes_all_cover_the_stream(self, chunks):
        n = len(chunks_to_instance(chunks, machines=MACHINES).jobs)
        for partition in ("round-robin", "hash", "tenant"):
            result = shard_solve(
                chunks, "rejection-flow", 2, machines=MACHINES,
                partition=partition, **PARAMS,
            )
            assert result.num_jobs == n
            assert result.partition == partition

    def test_invalid_arguments_rejected(self, chunks):
        with pytest.raises(InvalidParameterError, match="every shard needs"):
            shard_solve(chunks, "rejection-flow", MACHINES + 1,
                        machines=MACHINES, **PARAMS)
        with pytest.raises(InvalidParameterError, match="unknown partition"):
            shard_solve(chunks, "rejection-flow", 2, machines=MACHINES,
                        partition="alphabetical", **PARAMS)
        with pytest.raises(InvalidParameterError, match="workers"):
            shard_solve(chunks, "rejection-flow", 2, machines=MACHINES,
                        workers=0, **PARAMS)
        with pytest.raises(StreamingNotSupportedError):
            shard_solve(chunks, "yds", 2, machines=MACHINES)


# --------------------------------------------------------------------------------------
# CLI: repro solve --shards / repro shard-solve
# --------------------------------------------------------------------------------------


class TestShardSolveCLI:
    _COMMON = ["--scenario", "multi-tenant-mix", "--jobs", "60",
               "--machines", "4", "--seed", "2018", "--param", "epsilon=0.5"]

    def test_plain_store_vs_shards_1_byte_identical(self, tmp_path):
        # The in-process replica of the CI shard-identity gate's first step.
        plain_out, k1_out = io.StringIO(), io.StringIO()
        assert main(["solve", *self._COMMON, "--store", str(tmp_path / "plain"),
                     "--json"], out=plain_out) == 0
        assert main(["shard-solve", *self._COMMON, "--shards", "1",
                     "--store", str(tmp_path / "k1"), "--json"], out=k1_out) == 0
        assert plain_out.getvalue() == k1_out.getvalue()
        assert json.loads(plain_out.getvalue())["algorithm"] == "rejection-flow"
        assert _store_bytes(tmp_path / "plain") == _store_bytes(tmp_path / "k1")

    def test_solve_json_matches_shard_solve_json_without_store(self):
        batch_out, sharded_out = io.StringIO(), io.StringIO()
        assert main(["solve", *self._COMMON, "--json"], out=batch_out) == 0
        assert main(["shard-solve", *self._COMMON, "--shards", "1", "--json"],
                    out=sharded_out) == 0
        assert batch_out.getvalue() == sharded_out.getvalue()

    def test_human_output_reports_cache_state(self, tmp_path):
        args = ["shard-solve", *self._COMMON, "--shards", "2",
                "--store", str(tmp_path / "store")]
        cold, warm = io.StringIO(), io.StringIO()
        assert main(args, out=cold) == 0
        assert "0/2 shard(s) cached, merged computed" in cold.getvalue()
        assert main(args, out=warm) == 0
        assert "2/2 shard(s) cached, merged cached" in warm.getvalue()
        assert "per shard" in warm.getvalue()

    def test_scenario_and_trace_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(["shard-solve", "--scenario", "flash-crowd",
                     "--trace", str(tmp_path / "t.ndjson")])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


# --------------------------------------------------------------------------------------
# Experiment E16
# --------------------------------------------------------------------------------------


class TestE16:
    _CONFIG = dict(
        scenarios=("flash-crowd",),
        shard_counts=(1, 2),
        num_jobs=30,
        num_machines=4,
    )

    def test_single_coordinator_anchors_ratio_at_one(self):
        result = run_experiment("E16", **self._CONFIG)
        rows = result.raw["rows"]
        assert {row["k"] for row in rows} == {1, 2}
        for row in rows:
            if row["k"] == 1:
                assert row["ratio_vs_single"] == 1.0
            assert row["events"] > 0
            # Throughput stays off by default: artifacts must be reproducible.
            assert "events_per_s" not in row

    def test_raw_is_byte_reproducible(self):
        one = run_experiment("E16", **self._CONFIG)
        two = run_experiment("E16", **self._CONFIG)
        assert canonical_json(one.raw) == canonical_json(two.raw)

    def test_empty_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("E16", shard_counts=())


# --------------------------------------------------------------------------------------
# Property-based: sharded vs batch, across dispatch modes
# --------------------------------------------------------------------------------------


_epsilons = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
_dispatch = st.sampled_from(DISPATCH_MODES)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=flow_instances(), epsilon=_epsilons, dispatch=_dispatch)
def test_sharded_k1_equals_batch_solve_under_every_dispatch(instance, epsilon, dispatch):
    sharded = shard_solve(
        instance, "rejection-flow", 1, dispatch=dispatch, epsilon=epsilon
    )
    batch = solve(instance, "rejection-flow", dispatch=dispatch, epsilon=epsilon)
    assert canonical_json(sharded.row) == canonical_json(batch.as_row())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=flow_instances(max_jobs=10, max_machines=3), epsilon=_epsilons)
def test_merged_accounting_is_exact(instance, epsilon):
    k = min(2, instance.num_machines)
    result = shard_solve(instance, "rejection-flow", k, epsilon=epsilon)
    assert result.num_jobs == instance.num_jobs
    assert result.objective_value == sum(result.shard_objectives)
    totals = result.payload["totals"]
    assert totals["rejected_count"] == sum(
        row["rejected_count"] for row in result.shard_rows
    )
    assert totals["num_jobs"] == instance.num_jobs
