"""Tests for the trace-driven workload subsystem and the scenario catalog.

Covers the NDJSON/CSV trace readers and writers (schema errors with line and
field attribution, byte-exact round trips — including the property-based
generate → export → re-ingest → byte-identical ``SolveOutcome`` loop), the
deterministic chunk-stream transforms, the heavy-traffic scenario catalog
(determinism, session-vs-batch byte identity, workload-suite integration),
experiment E14 and the ``repro trace`` / ``repro serve --trace-format`` CLI.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_based import flow_instances

import repro
from repro.cli import main
from repro.exceptions import InvalidParameterError, TraceSchemaError
from repro.experiments import run_experiment
from repro.service.protocol import parse_request
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.solvers import solve
from repro.utils.serialization import canonical_json
from repro.workloads import standard_suites, validate_unique_suites
from repro.workloads.generators import InstanceGenerator, JobChunk
from repro.workloads.scenarios import (
    SCENARIOS,
    available_scenarios,
    get_scenario,
    piecewise_warp,
)
from repro.workloads.suites import WorkloadSuite
from repro.workloads.traces import (
    chunks_to_instance,
    merge,
    read_trace_chunks,
    read_trace_jobs,
    renumber,
    scale_load,
    shard,
    time_warp,
    trace_instance,
    trace_stats,
    truncate,
    write_csv_trace,
    write_ndjson_trace,
    write_trace,
)


def _round_trip(instance: Instance, fmt: str) -> Instance:
    buf = io.StringIO()
    if fmt == "csv":
        write_csv_trace(instance.jobs, buf)
    else:
        write_ndjson_trace(instance.jobs, buf)
    buf.seek(0)
    return chunks_to_instance(
        read_trace_chunks(buf, fmt), machines=instance.machines, name=instance.name
    )


def _jobs_dicts(instance: Instance) -> list[dict]:
    return [job.to_dict() for job in instance.jobs]


# --------------------------------------------------------------------------------------
# Row schema and error reporting
# --------------------------------------------------------------------------------------


class TestSchemaErrors:
    def test_missing_field_names_line_and_field(self):
        with pytest.raises(TraceSchemaError) as err:
            parse_request('{"id": 1, "sizes": [1.0]}', lineno=7)
        assert "line 7" in str(err.value) and "'release'" in str(err.value)
        assert err.value.lineno == 7 and err.value.field == "release"

    def test_bad_type_names_field(self):
        with pytest.raises(TraceSchemaError) as err:
            parse_request('{"id": 1, "release": "soon", "sizes": [1.0]}', lineno=2)
        assert err.value.field == "release"
        with pytest.raises(TraceSchemaError) as err:
            parse_request('{"id": 1, "release": 0.0, "sizes": 3}', lineno=2)
        assert err.value.field == "sizes"
        with pytest.raises(TraceSchemaError) as err:
            parse_request('{"id": "x7", "release": 0.0, "sizes": [1.0]}', lineno=4)
        assert err.value.field == "id"

    def test_unknown_fields_tolerated_on_ndjson(self):
        # The serve wire format has always ignored client-side metadata on
        # job lines; the trace reader keeps that compatibility.
        (job,) = parse_request('{"id": 1, "release": 0.0, "sizes": [1.0], "tenant": "a"}').jobs
        assert job.id == 1 and job.sizes == (1.0,)

    def test_non_finite_values_rejected_with_field(self):
        for field, line in [
            ("release", '{"id": 0, "release": NaN, "sizes": [1.0]}'),
            ("release", '{"id": 0, "release": "inf", "sizes": [1.0]}'),
            ("weight", '{"id": 0, "release": 0.0, "sizes": [1.0], "weight": NaN}'),
            ("deadline", '{"id": 0, "release": 0.0, "sizes": [1.0], "deadline": Infinity}'),
            ("sizes", '{"id": 0, "release": 0.0, "sizes": [NaN]}'),
        ]:
            with pytest.raises(TraceSchemaError) as err:
                parse_request(line, lineno=5)
            assert err.value.field == field and err.value.lineno == 5
        # Infinite *sizes* are legitimate: they mark forbidden machines.
        (job,) = parse_request('{"id": 0, "release": 0.0, "sizes": [1.0, Infinity]}').jobs
        assert math.isinf(job.sizes[1])

    def test_invariant_violation_carries_line(self):
        with pytest.raises(TraceSchemaError) as err:
            parse_request('{"id": 1, "release": -2.0, "sizes": [1.0]}', lineno=3)
        assert "line 3" in str(err.value)

    def test_not_json_and_not_object(self):
        with pytest.raises(TraceSchemaError):
            parse_request("{nope", lineno=1)
        with pytest.raises(TraceSchemaError):
            parse_request("[1, 2]", lineno=1)

    def test_trace_schema_error_is_invalid_parameter_error(self):
        # The CLI's exit-2 contract catches ReproError; the subclassing keeps
        # pre-existing callers that catch InvalidParameterError working.
        assert issubclass(TraceSchemaError, InvalidParameterError)

    def test_cross_row_release_order_enforced(self):
        rows = "\n".join(
            [
                '{"id": 0, "release": 5.0, "sizes": [1.0]}',
                '{"id": 1, "release": 1.0, "sizes": [1.0]}',
            ]
        )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(rows)))
        assert err.value.lineno == 2 and err.value.field == "release"

    def test_machine_count_must_be_constant(self):
        rows = "\n".join(
            [
                '{"id": 0, "release": 0.0, "sizes": [1.0]}',
                '{"id": 1, "release": 1.0, "sizes": [1.0, 2.0]}',
            ]
        )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(rows)))
        assert err.value.lineno == 2 and err.value.field == "sizes"

    def test_mixed_deadlines_rejected(self):
        rows = "\n".join(
            [
                '{"id": 0, "release": 0.0, "sizes": [1.0], "deadline": 9.0}',
                '{"id": 1, "release": 1.0, "sizes": [1.0]}',
            ]
        )
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_chunks(io.StringIO(rows)))
        assert err.value.field == "deadline"

    def test_csv_header_errors(self):
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(io.StringIO("id,release,size_0,bogus\n"), fmt="csv"))
        assert err.value.field == "bogus"
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(io.StringIO("id,size_0\n"), fmt="csv"))
        assert err.value.field == "release"
        with pytest.raises(TraceSchemaError):
            list(read_trace_jobs(io.StringIO("id,release,size_1\n"), fmt="csv"))

    def test_csv_cell_count_mismatch(self):
        stream = io.StringIO("id,release,size_0\n0,0.0,1.0,extra\n")
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(stream, fmt="csv"))
        assert err.value.lineno == 2

    def test_csv_duplicate_column_rejected(self):
        stream = io.StringIO("id,release,release,size_0\n0,1.0,2.0,3.0\n")
        with pytest.raises(TraceSchemaError) as err:
            list(read_trace_jobs(stream, fmt="csv"))
        assert err.value.field == "release"

    def test_unknown_format_rejected_for_streams_too(self):
        stream = io.StringIO('{"id": 0, "release": 0.0, "sizes": [1.0]}\n')
        with pytest.raises(InvalidParameterError, match="unknown trace format"):
            list(read_trace_jobs(stream, fmt="CSV"))


# --------------------------------------------------------------------------------------
# Round trips
# --------------------------------------------------------------------------------------


class TestRoundTrips:
    @pytest.fixture(scope="class")
    def instance(self):
        return InstanceGenerator(
            num_machines=3, machine_model="restricted", seed=11
        ).generate(60)

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_jobs_identical_after_round_trip(self, instance, fmt):
        back = _round_trip(instance, fmt)
        assert _jobs_dicts(back) == _jobs_dicts(instance)

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_restricted_assignment_inf_survives(self, instance, fmt):
        assert any(math.isinf(p) for job in instance.jobs for p in job.sizes)
        back = _round_trip(instance, fmt)
        assert _jobs_dicts(back) == _jobs_dicts(instance)

    def test_deadline_and_weight_columns(self):
        jobs = [
            Job(0, release=0.0, sizes=(2.0, 3.0), weight=1.5, deadline=9.0),
            Job(1, release=1.0, sizes=(1.0, math.inf), weight=0.25, deadline=4.5),
        ]
        instance = Instance.build(2, jobs)
        for fmt in ("ndjson", "csv"):
            back = _round_trip(instance, fmt)
            assert _jobs_dicts(back) == _jobs_dicts(instance)

    def test_export_is_byte_stable(self, instance):
        first, second = io.StringIO(), io.StringIO()
        write_ndjson_trace(instance.jobs, first)
        write_ndjson_trace(instance.jobs, second)
        assert first.getvalue() == second.getvalue()

    def test_ndjson_csv_ndjson_is_byte_identical(self, instance, tmp_path):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.ndjson"
        write_trace(instance.jobs, a)
        write_trace(read_trace_chunks(a), b)
        write_trace(read_trace_chunks(b), c)
        assert a.read_text() == c.read_text()

    def test_trace_instance_infers_machines(self, instance, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(instance.jobs, path)
        back = trace_instance(path)
        assert back.num_machines == instance.num_machines
        assert _jobs_dicts(back) == _jobs_dicts(instance)

    def test_write_trace_is_atomic(self, instance, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(instance.jobs, path)
        before = path.read_text()
        # An unknown format is rejected before the destination is touched...
        with pytest.raises(InvalidParameterError, match="unknown trace format"):
            write_trace(instance.jobs, path, fmt="xml")
        assert path.read_text() == before
        # ...and a writer crash mid-stream leaves the old contents intact.
        def exploding():
            yield instance.jobs[0]
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            write_trace(exploding(), path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path], "no temp files left behind"

    def test_in_place_convert_is_safe(self, instance, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(instance.jobs, path)
        # The reader is lazy and the writer goes through a temp file, so
        # reading and rewriting the same path must not destroy the trace.
        count = write_trace(scale_load(read_trace_chunks(path), 2.0), path)
        assert count == instance.num_jobs
        back = trace_instance(path, machines=instance.machines)
        assert [j.sizes for j in back.jobs] == [
            tuple(p * 2.0 for p in j.sizes) for j in instance.jobs
        ]

    def test_chunk_boundaries_do_not_change_result(self, instance):
        buf = io.StringIO()
        write_ndjson_trace(instance.jobs, buf)
        small = list(read_trace_chunks(io.StringIO(buf.getvalue()), chunk_size=7))
        big = list(read_trace_chunks(io.StringIO(buf.getvalue()), chunk_size=1000))
        assert len(small) > 1 and len(big) == 1
        jobs_small = [j.to_dict() for c in small for j in c.jobs()]
        jobs_big = [j.to_dict() for c in big for j in c.jobs()]
        assert jobs_small == jobs_big

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(), fmt=st.sampled_from(["ndjson", "csv"]))
    def test_property_solve_outcome_byte_identical(self, instance, fmt):
        """generate -> export -> re-ingest -> byte-identical SolveOutcome."""
        back = _round_trip(instance, fmt)
        original = solve(instance, "rejection-flow", epsilon=0.5)
        replayed = solve(back, "rejection-flow", epsilon=0.5)
        assert canonical_json(original.as_row()) == canonical_json(replayed.as_row())
        assert original.result.records == replayed.result.records


# --------------------------------------------------------------------------------------
# Transforms
# --------------------------------------------------------------------------------------


def _chunks(instance: Instance, chunk_size: int = 16):
    buf = io.StringIO()
    write_ndjson_trace(instance.jobs, buf)
    buf.seek(0)
    return read_trace_chunks(buf, chunk_size=chunk_size)


class TestTransforms:
    @pytest.fixture(scope="class")
    def instance(self):
        return InstanceGenerator(num_machines=2, seed=5).generate(50)

    def test_scale_load_multiplies_sizes(self, instance):
        out = chunks_to_instance(scale_load(_chunks(instance), 2.0), machines=2)
        for before, after in zip(instance.jobs, out.jobs):
            assert after.sizes == tuple(p * 2.0 for p in before.sizes)
            assert after.release == before.release

    def test_time_warp_factor(self, instance):
        out = chunks_to_instance(time_warp(_chunks(instance), 0.5), machines=2)
        for before, after in zip(instance.jobs, out.jobs):
            assert after.release == before.release * 0.5

    def test_time_warp_function_applies_to_deadlines(self):
        jobs = [Job(k, release=float(k), sizes=(1.0,), deadline=float(k) + 2.0)
                for k in range(10)]
        instance = Instance.build(1, jobs)
        out = chunks_to_instance(
            time_warp(_chunks(instance), lambda t: t * 3.0), machines=1
        )
        for job in out.jobs:
            assert job.deadline == (job.release / 3.0 + 2.0) * 3.0

    def test_invalid_factors_rejected(self, instance):
        with pytest.raises(InvalidParameterError):
            list(scale_load(_chunks(instance), 0.0))
        with pytest.raises(InvalidParameterError):
            list(time_warp(_chunks(instance), -1.0))

    def test_truncate_by_jobs_and_time(self, instance):
        out = chunks_to_instance(truncate(_chunks(instance), max_jobs=7), machines=2)
        assert out.num_jobs == 7
        assert _jobs_dicts(out) == _jobs_dicts(instance)[:7]
        cutoff = instance.jobs[20].release
        timed = chunks_to_instance(
            truncate(_chunks(instance), max_time=cutoff), machines=2
        )
        assert all(job.release <= cutoff for job in timed.jobs)
        assert timed.num_jobs == sum(1 for j in instance.jobs if j.release <= cutoff)

    def test_shard_partitions_trace(self, instance):
        shards = [
            chunks_to_instance(shard(_chunks(instance), 3, i), machines=2)
            for i in range(3)
        ]
        assert sum(s.num_jobs for s in shards) == instance.num_jobs
        # Shards renumber sequentially and preserve the original interleaving.
        for s in shards:
            assert [job.id for job in s.jobs] == list(range(s.num_jobs))
        releases = sorted(r for s in shards for r in (j.release for j in s.jobs))
        assert releases == [job.release for job in instance.jobs]
        with pytest.raises(InvalidParameterError):
            list(shard(_chunks(instance), 3, 5))

    def test_renumber(self, instance):
        chunks = list(renumber(_chunks(instance, chunk_size=9)))
        ids = [i for c in chunks for i in c.job_ids().tolist()]
        assert ids == list(range(instance.num_jobs))

    def test_merge_orders_by_release_and_renumbers(self):
        a = InstanceGenerator(num_machines=2, seed=1).generate(30)
        b = InstanceGenerator(num_machines=2, seed=2).generate(20)
        merged = chunks_to_instance(
            merge(_chunks(a, 8), _chunks(b, 8), chunk_size=16), machines=2
        )
        assert merged.num_jobs == 50
        assert [job.id for job in merged.jobs] == list(range(50))
        releases = [job.release for job in merged.jobs]
        assert releases == sorted(releases)
        assert sorted(releases) == sorted(
            [j.release for j in a.jobs] + [j.release for j in b.jobs]
        )

    def test_merge_is_deterministic(self):
        a = InstanceGenerator(num_machines=2, seed=1).generate(25)
        b = InstanceGenerator(num_machines=2, seed=2).generate(25)
        one = chunks_to_instance(merge(_chunks(a, 4), _chunks(b, 64)), machines=2)
        two = chunks_to_instance(merge(_chunks(a, 4), _chunks(b, 64)), machines=2)
        assert _jobs_dicts(one) == _jobs_dicts(two)

    def test_merge_rejects_machine_mismatch(self):
        a = InstanceGenerator(num_machines=2, seed=1).generate(10)
        b = InstanceGenerator(num_machines=3, seed=2).generate(10)
        with pytest.raises(InvalidParameterError):
            list(merge(_chunks(a), _chunks(b)))

    def test_stats(self, instance):
        stats = trace_stats(_chunks(instance))
        assert stats.num_jobs == instance.num_jobs
        assert stats.num_machines == 2
        assert stats.first_release == instance.jobs[0].release
        assert stats.last_release == instance.jobs[-1].release
        assert not stats.has_deadlines
        empty = trace_stats(iter(()))
        assert empty.num_jobs == 0


# --------------------------------------------------------------------------------------
# Shard partition stability and the shard -> merge lossless inverse
# --------------------------------------------------------------------------------------


def _ndjson(chunks) -> str:
    buf = io.StringIO()
    write_ndjson_trace(chunks, buf)
    return buf.getvalue()


class TestShardRoundTrip:
    def test_hash_shard_membership_stable_across_chunk_sizes(self):
        # Hash (and tenant) sharding keys on the job's effective id, never on
        # chunk boundaries: re-chunking the same trace must yield the same
        # shards job for job.  (Round-robin keys on stream position, which is
        # also chunking-independent; it is covered by the round trip below.)
        instance = InstanceGenerator(num_machines=2, seed=7).generate(60)
        for mode in ("hash", "tenant"):
            for index in range(3):
                fine = shard(_chunks(instance, chunk_size=7), 3, index,
                             mode=mode, keep_ids=True)
                coarse = shard(_chunks(instance, chunk_size=64), 3, index,
                               mode=mode, keep_ids=True)
                assert _ndjson(fine) == _ndjson(coarse), (mode, index)

    def test_hash_shard_is_a_pure_function_of_the_id(self):
        # Truncating one shard's input must not reassign jobs in another:
        # membership depends only on the id, so a job keeps its shard even
        # when the surrounding stream changes.
        instance = InstanceGenerator(num_machines=2, seed=11).generate(40)
        full = _ndjson(shard(_chunks(instance), 2, 0, mode="hash", keep_ids=True))
        prefix = chunks_to_instance(
            truncate(_chunks(instance), max_jobs=25), machines=2
        )
        partial = _ndjson(shard(_chunks(prefix), 2, 0, mode="hash", keep_ids=True))
        assert full.startswith(partial)

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    @pytest.mark.parametrize("mode", ["round-robin", "hash", "tenant"])
    def test_merge_of_shards_round_trips_byte_identically(self, scenario_name, mode):
        # The documented inverse: merge(shard(t, k, i, keep_ids=True) for i)
        # under id tie-break reproduces the original trace byte for byte —
        # for every catalog scenario, including flash-crowd's release-tie
        # bursts and multi-tenant-mix's weight classes.
        chunks = list(
            get_scenario(scenario_name).job_chunks(48, 2, seed=2018)
        )
        original = _ndjson(chunks)
        for num_shards in (1, 3):
            shards = [
                shard(iter(chunks), num_shards, index, mode=mode, keep_ids=True)
                for index in range(num_shards)
            ]
            merged = merge(*shards, tie_break="id")
            assert _ndjson(merged) == original, (scenario_name, mode, num_shards)

    def test_tenant_mode_keeps_weight_classes_together(self):
        chunks = list(get_scenario("multi-tenant-mix").job_chunks(60, 2, seed=3))
        weights = [
            {job.weight for c in shard(iter(chunks), 2, index, mode="tenant")
             for job in c.jobs()}
            for index in range(2)
        ]
        assert not (weights[0] & weights[1])
        all_weights = {job.weight for c in chunks for job in c.jobs()}
        assert weights[0] | weights[1] == all_weights

    def test_unknown_mode_and_tie_break_rejected(self):
        instance = InstanceGenerator(num_machines=2, seed=1).generate(5)
        with pytest.raises(InvalidParameterError):
            list(shard(_chunks(instance), 2, 0, mode="alphabetical"))
        with pytest.raises(InvalidParameterError):
            list(merge(_chunks(instance), tie_break="coin-flip"))


# --------------------------------------------------------------------------------------
# JobChunk ids column
# --------------------------------------------------------------------------------------


class TestChunkIds:
    def test_explicit_ids_used_by_jobs(self):
        chunk = JobChunk(
            start=0,
            releases=np.array([0.0, 1.0]),
            sizes=np.array([[1.0], [2.0]]),
            ids=np.array([7, 3]),
        )
        chunk.validate()
        assert [job.id for job in chunk.jobs()] == [7, 3]
        assert chunk.job_ids().tolist() == [7, 3]

    def test_default_ids_contiguous_from_start(self):
        chunk = JobChunk(5, np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
        assert chunk.job_ids().tolist() == [5, 6]

    def test_duplicate_and_negative_ids_rejected(self):
        base = dict(start=0, releases=np.array([0.0, 1.0]),
                    sizes=np.array([[1.0], [2.0]]))
        with pytest.raises(Exception):
            JobChunk(**base, ids=np.array([1, 1])).validate()
        with pytest.raises(Exception):
            JobChunk(**base, ids=np.array([-1, 0])).validate()


# --------------------------------------------------------------------------------------
# Scenario catalog
# --------------------------------------------------------------------------------------


class TestScenarios:
    def test_catalog_contents(self):
        catalog = available_scenarios()
        assert {"heavy-tail-pareto", "diurnal-pareto", "flash-crowd",
                "multi-tenant-mix", "load-ramp",
                "drift-diurnal-flash", "drift-ramp-heavytail"} == set(catalog)
        assert all(description for description in catalog.values())

    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameterError):
            get_scenario("nope")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_deterministic_in_seed(self, name):
        scenario = get_scenario(name)
        one = scenario.instance(40, num_machines=3, seed=9)
        two = scenario.instance(40, num_machines=3, seed=9)
        other = scenario.instance(40, num_machines=3, seed=10)
        assert one.to_dict() == two.to_dict()
        assert one.to_dict() != other.to_dict()
        assert one.num_jobs == 40 and one.num_machines == 3

    @pytest.mark.parametrize(
        "name", ["flash-crowd", "heavy-tail-pareto", "multi-tenant-mix", "load-ramp"]
    )
    def test_session_ingest_matches_batch_solve_byte_identically(self, name):
        """Acceptance: trace -> session reproduces repro.solve byte-identically."""
        scenario = get_scenario(name)
        instance = scenario.instance(60, num_machines=3, seed=4, name="t")
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        session = repro.open_session("rejection-flow", 3, epsilon=0.5, name="t")
        for chunk in scenario.job_chunks(60, num_machines=3, seed=4, chunk_size=13):
            session.submit_many(chunk)
        streamed = session.finalize()
        assert canonical_json(streamed.as_row()) == canonical_json(batch.as_row())
        assert streamed.result.records == batch.result.records
        assert streamed.result.intervals == batch.result.intervals

    def test_exported_scenario_trace_replays_byte_identically(self, tmp_path):
        scenario = get_scenario("diurnal-pareto")
        path = tmp_path / "diurnal.csv"
        write_trace(scenario.job_chunks(50, num_machines=2, seed=3), path)
        batch = solve(scenario.instance(50, num_machines=2, seed=3), "greedy")
        session = repro.open_session("greedy", 2)
        for chunk in read_trace_chunks(path):
            session.submit_many(chunk)
        replayed = session.finalize()
        assert canonical_json(replayed.as_row()) == canonical_json(batch.as_row())

    def test_piecewise_warp_monotone_and_rate_shaped(self):
        warp = piecewise_warp(period=8.0, multipliers=(0.5, 2.0))
        u = np.linspace(0.0, 40.0, 500)
        t = warp(u)
        assert (np.diff(t) >= 0).all()
        # Work accumulates at rate `multiplier`: a unit of work in the slow
        # half spans 4x the wall time of a unit in the fast half (0.5 vs 2).
        assert warp(np.array([2.0]))[0] == pytest.approx(4.0)
        assert warp(np.array([2.0 + 8.0]))[0] == pytest.approx(4.0 + 4.0)
        with pytest.raises(InvalidParameterError):
            piecewise_warp(0.0, (1.0,))
        with pytest.raises(InvalidParameterError):
            piecewise_warp(1.0, (1.0, -2.0))

    def test_suites_expose_scenarios_at_all_scales(self):
        sizes = {}
        for scale in ("small", "medium"):
            suites = standard_suites(scale)
            assert set(suites["scenarios"].labels()) == set(SCENARIOS)
            sizes[scale] = suites["scenarios"].build("flash-crowd").num_jobs
        assert sizes["medium"] > sizes["small"]

    def test_validate_unique_suites(self):
        a, b = WorkloadSuite(name="dup"), WorkloadSuite(name="dup")
        with pytest.raises(InvalidParameterError):
            validate_unique_suites([a, b])
        validate_unique_suites([a, WorkloadSuite(name="other")])


# --------------------------------------------------------------------------------------
# Experiment E14
# --------------------------------------------------------------------------------------


class TestE14:
    _CONFIG = dict(
        scenarios=("flash-crowd", "multi-tenant-mix"),
        algorithms=("rejection-flow", "fcfs"),
        num_jobs=30,
        num_machines=2,
    )

    def test_session_and_batch_ingest_agree(self):
        streamed = run_experiment("E14", ingest="session", **self._CONFIG)
        batch = run_experiment("E14", ingest="batch", **self._CONFIG)
        # Identical measurements; only the recorded ingest-mode label differs.
        strip = lambda raw: {k: v for k, v in raw.items() if k != "ingest"}  # noqa: E731
        assert canonical_json(strip(streamed.raw)) == canonical_json(strip(batch.raw))

    def test_raw_is_byte_reproducible(self):
        one = run_experiment("E14", **self._CONFIG)
        two = run_experiment("E14", **self._CONFIG)
        assert canonical_json(one.raw) == canonical_json(two.raw)

    def test_all_streaming_solvers_by_default(self):
        from repro.service.session import streaming_algorithms

        result = run_experiment(
            "E14", scenarios=("flash-crowd",), num_jobs=20, num_machines=2
        )
        assert {row["algorithm"] for row in result.raw["rows"]} == set(
            streaming_algorithms()
        )

    def test_unknown_ingest_mode(self):
        with pytest.raises(ValueError):
            run_experiment("E14", ingest="teleport", **self._CONFIG)


# --------------------------------------------------------------------------------------
# CLI: repro trace + serve trace formats
# --------------------------------------------------------------------------------------


class TestTraceCli:
    def _generate(self, tmp_path, fmt="ndjson", jobs=40):
        path = tmp_path / f"t.{fmt}"
        code = main(
            ["trace", "generate", "--scenario", "flash-crowd", "--jobs", str(jobs),
             "--machines", "2", "--out", str(path)],
            out=io.StringIO(),
        )
        assert code == 0
        return path

    def test_scenarios_listing(self, capsys):
        assert main(["trace", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "multi-tenant-mix" in out

    def test_generate_and_inspect(self, tmp_path):
        path = self._generate(tmp_path)
        out = io.StringIO()
        assert main(["trace", "inspect", str(path)], out=out) == 0
        assert "num_jobs" in out.getvalue() and ": 40" in out.getvalue()
        as_json = io.StringIO()
        assert main(["trace", "inspect", str(path), "--json"], out=as_json) == 0
        assert json.loads(as_json.getvalue())["num_jobs"] == 40

    def test_convert_round_trip_byte_identical(self, tmp_path):
        src = self._generate(tmp_path)
        csv_path = tmp_path / "t.csv"
        back = tmp_path / "back.ndjson"
        assert main(["trace", "convert", str(src), str(csv_path)], out=io.StringIO()) == 0
        assert main(["trace", "convert", str(csv_path), str(back)], out=io.StringIO()) == 0
        assert src.read_text() == back.read_text()

    def test_convert_transforms(self, tmp_path):
        src = self._generate(tmp_path)
        dst = tmp_path / "out.ndjson"
        code = main(
            ["trace", "convert", str(src), str(dst), "--load-scale", "2.0",
             "--time-warp", "0.5", "--max-jobs", "10"],
            out=io.StringIO(),
        )
        assert code == 0
        assert trace_instance(dst, machines=2).num_jobs == 10
        shard_dst = tmp_path / "shard.ndjson"
        assert main(
            ["trace", "convert", str(src), str(shard_dst), "--shard", "1/4"],
            out=io.StringIO(),
        ) == 0
        assert trace_instance(shard_dst, machines=2).num_jobs == 10

    def test_convert_bad_shard_exits_2(self, tmp_path, capsys):
        src = self._generate(tmp_path)
        code = main(["trace", "convert", str(src), str(tmp_path / "o.ndjson"),
                     "--shard", "nope"])
        assert code == 2
        assert "--shard" in capsys.readouterr().err

    def test_inspect_malformed_exits_2_with_line_and_field(self, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"id": 0, "release": 0.0, "sizes": [1.0]}\n{"id": 1}\n')
        assert main(["trace", "inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'release'" in err

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        code = main(["trace", "generate", "--scenario", "nope", "--out",
                     str(tmp_path / "x.ndjson")])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_serve_csv_trace_matches_ndjson_trace(self, tmp_path):
        src = self._generate(tmp_path, jobs=30)
        csv_path = tmp_path / "t.csv"
        assert main(["trace", "convert", str(src), str(csv_path)], out=io.StringIO()) == 0
        out_ndjson, out_csv = io.StringIO(), io.StringIO()
        args = ["serve", "--algorithm", "rejection-flow", "--machines", "2", "--quiet"]
        assert main([*args, "--trace", str(src)], out=out_ndjson) == 0
        assert main([*args, "--trace", str(csv_path)], out=out_csv) == 0
        assert out_ndjson.getvalue() == out_csv.getvalue()
        final = json.loads(out_csv.getvalue().strip().splitlines()[-1])
        assert final["event"] == "final"

    def test_serve_csv_malformed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,release,size_0\n0,0.0,1.0\n1,zzz,1.0\n")
        code = main(["serve", "--machines", "1", "--trace", str(path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'release'" in err
