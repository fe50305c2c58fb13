"""Streaming ``SchedulerSession``: batch equivalence, snapshots, stream.

The contract of the streaming API (PR: SchedulerSession) is threefold:

* **Batch equivalence** — replaying any instance through
  ``submit_many`` + ``finalize()`` yields byte-identical schedules and
  objectives to ``repro.solve()`` for every streaming-capable algorithm, in
  both dispatch modes (property-based below, plus a deep-queue burst that
  exercises the Fenwick order-statistics path);
* **Snapshots** — a canonical-JSON ``snapshot()`` taken mid-run and
  ``restore()``-d resumes to the same final result and the same
  decision-event stream; a malformed snapshot is refused with the field
  named;
* **Observability** — the decision-event stream is complete and consistent
  with the per-job records, each event is handed out once and then freed,
  and every ``stats()`` counter agrees with the stream handed out so far.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from conftest import dispatch_mode
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_based import flow_instances
from test_solvers import best_paired_overhead

import repro
from repro.baselines.fcfs import FCFSScheduler
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.exceptions import (
    InvalidParameterError,
    ServiceProtocolError,
    SessionStateError,
    SimulationError,
    StreamingNotSupportedError,
    TraceSchemaError,
)
from repro.service import DecisionEvent, SchedulerSession, open_session, streaming_algorithms
from repro.service.protocol import decision_line, parse_request
from repro.simulation.engine import DISPATCH_MODES, FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.solvers import get_solver, solve
from repro.workloads.adversarial import overload_burst_instance
from repro.workloads.generators import InstanceGenerator, WeightedInstanceGenerator
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.traces import chunks_to_instance, iter_ndjson_jobs

#: Streaming algorithms with their parameter sets used across the suite.
_FLOW_STREAMING = [
    ("rejection-flow", {"epsilon": 0.5}),
    ("greedy", {}),
    ("fcfs", {}),
    ("immediate-rejection", {"epsilon": 0.25}),
]


def _assert_outcome_identical(streamed, batch):
    assert streamed.objective_value == batch.objective_value
    assert streamed.breakdown == batch.breakdown
    assert streamed.rejected_count == batch.rejected_count
    assert streamed.result.records == batch.result.records
    assert streamed.result.intervals == batch.result.intervals
    assert streamed.result.extras == batch.result.extras


def _replay(instance, algorithm, dispatch="indexed", **params):
    with dispatch_mode(dispatch):
        session = open_session(algorithm, instance.machines, **params)
        session.submit_many(instance.jobs)
        return session, session.finalize()


# --------------------------------------------------------------------------------------
# Batch equivalence
# --------------------------------------------------------------------------------------


class TestBatchEquivalence:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(), epsilon=st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    def test_theorem1_replay_identical(self, instance, epsilon):
        for dispatch in DISPATCH_MODES:
            batch = solve(instance, "rejection-flow", epsilon=epsilon)
            _, streamed = _replay(instance, "rejection-flow", dispatch=dispatch, epsilon=epsilon)
            _assert_outcome_identical(streamed, batch)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances())
    def test_all_flow_streaming_algorithms_identical(self, instance):
        for algorithm, params in _FLOW_STREAMING:
            batch = solve(instance, algorithm, **params)
            for dispatch in DISPATCH_MODES:
                _, streamed = _replay(instance, algorithm, dispatch=dispatch, **params)
                _assert_outcome_identical(streamed, batch)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(max_jobs=10), epsilon=st.sampled_from([0.3, 0.5]))
    def test_speed_scaling_replay_identical(self, instance, epsilon):
        alpha_instance = instance.with_alpha(2.5)
        batch = solve(alpha_instance, "rejection-energy-flow", epsilon=epsilon)
        for dispatch in DISPATCH_MODES:
            _, streamed = _replay(
                alpha_instance, "rejection-energy-flow", dispatch=dispatch, epsilon=epsilon
            )
            _assert_outcome_identical(streamed, batch)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances())
    def test_interleaved_polling_identical(self, instance):
        # Submitting one job at a time with a poll in between must make the
        # same decisions as the batch run (events observed "as they happen").
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        session = open_session("rejection-flow", instance.machines, epsilon=0.5)
        for job in instance.jobs:
            session.submit(job)
            session.poll()
        _assert_outcome_identical(session.finalize(), batch)

    def test_deep_queue_interleaved_polling_survives_growth(self):
        # Regression: the Fenwick prefix stats materialise mid-stream on
        # this path (queues outgrow the cutoff while later jobs are still
        # unsubmitted); jobs registered afterwards must be rankable — this
        # used to KeyError in prefix_of on the `repro serve` hot path.
        from repro.simulation.validation import validate_result

        instance = overload_burst_instance(num_machines=2, burst_jobs=40, trailing_shorts=80)
        session = open_session("rejection-flow", instance.machines, epsilon=0.4)
        for job in instance.jobs:
            session.submit(job)
            session.poll()
        outcome = session.finalize()
        validate_result(outcome.result)
        assert len(outcome.result.records) == instance.num_jobs
        # Deterministic: replaying the identical op interleaving (what
        # snapshot/restore does) reproduces the identical result.
        repeat = open_session("rejection-flow", instance.machines, epsilon=0.4)
        for job in instance.jobs:
            repeat.submit(job)
            repeat.poll()
        _assert_outcome_identical(repeat.finalize(), outcome)

    def test_deep_queue_burst_identical(self):
        # Queues far beyond PREFIX_SCAN_CUTOFF force the Fenwick
        # order-statistics branch; the session must materialise the same
        # rank universe as the batch run.
        instance = overload_burst_instance(num_machines=4, burst_jobs=60, trailing_shorts=150)
        batch = solve(instance, "rejection-flow", epsilon=0.4)
        assert batch.rejected_count > 0
        for dispatch in DISPATCH_MODES:
            _, streamed = _replay(instance, "rejection-flow", dispatch=dispatch, epsilon=0.4)
            _assert_outcome_identical(streamed, batch)

    def test_generated_instance_identical(self):
        instance = InstanceGenerator(num_machines=6, seed=42).generate(500)
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        _, streamed = _replay(instance, "rejection-flow", epsilon=0.5)
        _assert_outcome_identical(streamed, batch)

    def test_weighted_speed_scaling_generated(self):
        instance = WeightedInstanceGenerator(num_machines=3, seed=5, alpha=2.5).generate(80)
        batch = solve(instance, "rejection-energy-flow", epsilon=0.5)
        _, streamed = _replay(instance, "rejection-energy-flow", epsilon=0.5)
        _assert_outcome_identical(streamed, batch)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_event_stream_identical_across_dispatch_modes(self, scenario):
        # Equal outcomes do not imply equal streams: every decision event
        # (kind, job, machine, time, reason) must not depend on the mode.
        instance = SCENARIOS[scenario].instance(80, num_machines=3, seed=57)
        streams = {}
        for dispatch in DISPATCH_MODES:
            session, outcome = _replay(instance, "rejection-flow", dispatch=dispatch, epsilon=0.5)
            streams[dispatch] = ([event.as_dict() for event in session.events], outcome.as_row())
        assert streams["indexed"] == streams["scan"]
        assert streams["indexed"][0]

    def test_replay_overhead_under_10_percent(self):
        # Cheap enough to be the default online surface: on a 2k-job instance
        # (event-loop work, not fixed costs) submit_many + finalize stays
        # within 10% of the batch repro.solve() call.
        instance = InstanceGenerator(
            num_machines=8, seed=13, size_distribution="pareto"
        ).generate(2_000)
        overhead, batch_s, session_s = best_paired_overhead(
            lambda: solve(instance, "rejection-flow", epsilon=0.5),
            lambda: _replay(instance, "rejection-flow", epsilon=0.5),
        )
        # 10% relative budget with a 1ms absolute floor so sub-millisecond
        # jitter on a fast machine cannot fail the check spuriously.
        assert overhead < 0.10 or session_s - batch_s < 1e-3, (
            f"session overhead {overhead:.1%} (session {session_s * 1e3:.2f}ms "
            f"vs batch {batch_s * 1e3:.2f}ms) exceeds the 10% budget"
        )


# --------------------------------------------------------------------------------------
# JobChunk ingestion
# --------------------------------------------------------------------------------------


class TestChunkIngestion:
    def test_submit_many_accepts_job_chunks(self):
        generator = InstanceGenerator(num_machines=4, seed=11)
        instance = chunks_to_instance(
            generator.iter_job_chunks(600, chunk_size=128), machines=generator.machines()
        )
        session = open_session("rejection-flow", generator.machines(), epsilon=0.5)
        total = 0
        for chunk in generator.iter_job_chunks(600, chunk_size=128):
            total += session.submit_many(chunk)
        assert total == 600
        streamed = session.finalize()
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        _assert_outcome_identical(streamed, batch)

    def test_chunked_and_listwise_agree(self):
        generator = InstanceGenerator(num_machines=2, seed=3)
        instance = chunks_to_instance(
            generator.iter_job_chunks(100, chunk_size=32), machines=generator.machines()
        )
        by_chunk = open_session("fcfs", generator.machines())
        for chunk in generator.iter_job_chunks(100, chunk_size=32):
            by_chunk.submit_many(chunk)
        by_list = open_session("fcfs", generator.machines())
        by_list.submit_many(instance.jobs)
        _assert_outcome_identical(by_chunk.finalize(), by_list.finalize())

    def test_theorem1_chunk_ingest_identical_to_batch(self):
        # Chunks submitted to a default-path session materialise their rows
        # once; the outcome must stay byte-identical to the batch facade and
        # to listwise submission.
        generator = InstanceGenerator(num_machines=4, seed=11)
        instance = chunks_to_instance(
            generator.iter_job_chunks(600, chunk_size=128), machines=generator.machines()
        )
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        by_chunk = open_session("rejection-flow", generator.machines(), epsilon=0.5)
        for chunk in generator.iter_job_chunks(600, chunk_size=128):
            by_chunk.submit_many(chunk)
        by_list = open_session("rejection-flow", generator.machines(), epsilon=0.5)
        by_list.submit_many(instance.jobs)
        _assert_outcome_identical(by_chunk.finalize(), batch)
        _assert_outcome_identical(by_list.finalize(), batch)

    def test_theorem1_chunk_ingest_with_interleaved_polling(self):
        # Poll between chunks so the job universe grows while the Fenwick
        # stats are already materialised (the `repro serve` hot path).
        generator = InstanceGenerator(num_machines=3, seed=29)
        instance = chunks_to_instance(
            generator.iter_job_chunks(400, chunk_size=64), machines=generator.machines()
        )
        batch = solve(instance, "rejection-flow", epsilon=0.4)
        session = open_session("rejection-flow", generator.machines(), epsilon=0.4)
        for chunk in generator.iter_job_chunks(400, chunk_size=64):
            session.submit_many(chunk)
            session.poll()
        _assert_outcome_identical(session.finalize(), batch)


# --------------------------------------------------------------------------------------
# Snapshot / restore
# --------------------------------------------------------------------------------------


class TestSnapshotRestore:
    def _mid_run_session(self, instance, polled: bool):
        session = open_session("rejection-flow", instance.machines, epsilon=0.5)
        half = len(instance.jobs) // 2
        for job in instance.jobs[:half]:
            session.submit(job)
        if polled:
            session.poll()
        return session, half

    @pytest.mark.parametrize("polled", [False, True])
    def test_restore_resumes_to_same_final_result(self, polled):
        instance = InstanceGenerator(num_machines=3, seed=17).generate(120)
        batch = solve(instance, "rejection-flow", epsilon=0.5)
        session, half = self._mid_run_session(instance, polled)
        restored = SchedulerSession.restore(session.snapshot())
        for job in instance.jobs[half:]:
            session.submit(job)
            restored.submit(job)
        original = session.finalize()
        resumed = restored.finalize()
        _assert_outcome_identical(resumed, original)
        _assert_outcome_identical(resumed, batch)
        assert restored.events == session.events

    def test_deep_queue_snapshot_restore_identical(self):
        # A default-path session checkpointed mid-run with the Fenwick stats
        # materialised must restore with the same dispatch mode and resume
        # to the byte-identical batch outcome.
        instance = overload_burst_instance(num_machines=3, burst_jobs=80, trailing_shorts=60)
        batch = solve(instance, "rejection-flow", epsilon=0.4)
        session = open_session("rejection-flow", instance.machines, epsilon=0.4)
        half = len(instance.jobs) // 2
        for job in instance.jobs[:half]:
            session.submit(job)
        session.poll()
        assert session._stepper.state.prefix_stats is not None
        restored = SchedulerSession.restore(session.snapshot())
        assert restored.dispatch == "indexed"
        for job in instance.jobs[half:]:
            session.submit(job)
            restored.submit(job)
        original = session.finalize()
        resumed = restored.finalize()
        _assert_outcome_identical(resumed, original)
        _assert_outcome_identical(resumed, batch)
        assert restored.events == session.events

    @pytest.mark.parametrize("mode", DISPATCH_MODES)
    def test_restore_ignores_the_dispatch_key_of_older_snapshots(self, mode):
        # Older versions wrote the session's dispatch mode into snapshots.
        # A snapshot carrying one, even a mode that no longer exists,
        # restores in the process's mode and finalizes to the same row.
        instance = InstanceGenerator(num_machines=2, seed=23).generate(40)
        expected = _replay(instance, "rejection-flow", mode, epsilon=0.5)[1].as_row()
        with dispatch_mode(mode):
            session = open_session("rejection-flow", instance.machines, epsilon=0.5)
            session.submit_many(instance.jobs[:20])
            session.poll()
            assert "dispatch" not in session.snapshot()
            for older in ("indexed", "scan", "vectorized"):
                restored = SchedulerSession.restore({**session.snapshot(), "dispatch": older})
                assert restored.dispatch == mode
                assert restored.to_json() == session.to_json()
                restored.submit_many(instance.jobs[20:])
                assert restored.finalize().as_row() == expected

    def test_restore_from_json_string(self):
        instance = InstanceGenerator(num_machines=2, seed=23).generate(40)
        session, half = self._mid_run_session(instance, polled=True)
        payload = session.to_json()
        restored = SchedulerSession.restore(payload)
        assert restored.algorithm == "rejection-flow"
        assert restored.num_submitted == half
        assert restored.time == session.time
        # the restored consume cursor matches: no already-handed-out events
        # are re-delivered.
        assert restored.take_events() == session.take_events()

    def test_snapshot_roundtrip_is_stable(self):
        instance = InstanceGenerator(num_machines=2, seed=29).generate(30)
        session, _ = self._mid_run_session(instance, polled=True)
        snap = session.to_json()
        assert SchedulerSession.restore(snap).to_json() == snap

    def test_op_log_stays_compact_on_serve_pattern(self):
        # One submit + one poll per job (the serve loop) must not grow the
        # op log per job: runs compress to a single submit_poll_each entry,
        # and the snapshot still restores to an identical session.
        session = open_session("fcfs", 2)
        for i in range(100):
            session.submit(Job(i, float(i), (1.0, 1.0)))
            session.poll()
        snapshot = session.snapshot()
        assert len(snapshot["ops"]) <= 3
        restored = SchedulerSession.restore(snapshot)
        assert restored.to_json() == session.to_json()
        _assert_outcome_identical(restored.finalize(), session.finalize())

    def test_restore_matches_freed_buffer_state(self):
        # restore() must reproduce the freed-buffer semantics: events the
        # original handed out (and freed) must not reappear on .events or be
        # re-delivered by take_events().
        instance = InstanceGenerator(num_machines=2, seed=67).generate(40)
        for consume_with in ("advance", "poll"):
            session = open_session("fcfs", instance.machines)
            for job in instance.jobs[:20]:
                session.submit(job)
                if consume_with == "poll":
                    session.poll()
            if consume_with == "advance":
                session.advance_to(session._watermark)
            restored = SchedulerSession.restore(session.snapshot())
            assert restored.events == session.events
            assert restored.take_events() == session.take_events()
            for job in instance.jobs[20:]:
                session.submit(job)
                restored.submit(job)
            _assert_outcome_identical(restored.finalize(), session.finalize())

    @pytest.mark.parametrize("flag", [True, False])
    def test_restore_ignores_the_retired_event_buffer_flag(self, flag):
        # Snapshots written while sessions had an event-retention option
        # carry it as "retain_events"; they restore, hand out the same
        # events and finalize byte-identically.
        instance = overload_burst_instance(num_machines=2, burst_jobs=30, trailing_shorts=30)
        session = open_session("rejection-flow", instance.machines, epsilon=0.4)
        for job in instance.jobs[:20]:
            session.submit(job)
            session.poll()
        session.submit_many(instance.jobs[20:40])
        snapshot = session.snapshot()
        restored = SchedulerSession.restore({**snapshot, "retain_events": flag})
        assert restored.to_json() == session.to_json()
        assert restored.stats() == session.stats()
        assert restored.take_events() == session.take_events()
        for job in instance.jobs[40:]:
            session.submit(job)
            restored.submit(job)
        assert restored.finalize().as_row() == session.finalize().as_row()
        assert restored.take_events() == session.take_events()

    def test_restore_refuses_an_impossible_consumed_count(self):
        # The session that wrote a snapshot handed out at least what its
        # submit_poll_each polls did, and at most every event it emitted.
        jobs = InstanceGenerator(num_machines=2, seed=31).generate(20).jobs
        session = open_session("fcfs", 2)
        low = 0
        for job in jobs[:10]:
            session.submit(job)
            low += len(session.poll())
        session.submit_many(jobs[10:])
        session.advance_to(jobs[-1].release)
        snapshot = session.snapshot()
        assert [op["op"] for op in snapshot["ops"]] == [
            "submit_poll_each", "submit_many", "advance",
        ]
        high = session.events_emitted
        assert 0 < low < high == snapshot["consumed"]
        for consumed in (low, (low + high) // 2, high):
            restored = SchedulerSession.restore({**snapshot, "consumed": consumed})
            assert restored.events_emitted == restored.stats()["events_emitted"] == high
            assert len(restored.take_events()) == high - consumed
        for consumed in (-7, low - 1, high + 1, 10000):
            with pytest.raises(SessionStateError, match=f"field 'consumed' is {consumed},"):
                SchedulerSession.restore({**snapshot, "consumed": consumed})
        # Left out, it counts what the replayed polls handed out.
        del snapshot["consumed"]
        assert len(SchedulerSession.restore(snapshot).take_events()) == high - low

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        algorithm=st.sampled_from(streaming_algorithms()),
        dispatch=st.sampled_from(DISPATCH_MODES),
        steps=st.lists(
            st.sampled_from(["submit", "submit_many", "poll", "advance", "take", "switch"]),
            max_size=10,
        ),
    )
    def test_every_snapshot_restores(self, algorithm, dispatch, steps):
        # Whatever a session did before snapshot() (a meta session's
        # hot_switch restores its own snapshot), the snapshot restores to the
        # same op log, event count and undelivered events.
        jobs = list(InstanceGenerator(num_machines=2, seed=37).generate(20).jobs)
        with dispatch_mode(dispatch):
            session = open_session(algorithm, 2)
            for step in steps:
                if step == "submit" and jobs:
                    session.submit(jobs.pop(0))
                elif step == "submit_many":
                    session.submit_many(jobs[:3])
                    del jobs[:3]
                elif step == "poll":
                    session.poll()
                elif step == "advance":
                    session.advance_to(jobs[0].release if jobs else math.inf)
                elif step == "take":
                    session.take_events()
                elif step == "switch" and algorithm == "meta":
                    session.hot_switch("greedy")
                restored = SchedulerSession.restore(session.snapshot())
                assert restored.to_json() == session.to_json()
                assert restored.events_emitted == session.events_emitted
                assert restored.events == session.events

    def test_restore_rejects_unknown_schema(self):
        session = open_session("fcfs", 2)
        snapshot = session.snapshot()
        snapshot["schema"] = 999
        with pytest.raises(SessionStateError, match="schema"):
            SchedulerSession.restore(snapshot)

    @pytest.mark.parametrize(
        ("payload", "cause"),
        [
            ("[1, 2]", "expected an object, got list"),
            ('{"algorithm": "fcfs"}', "field 'schema' is missing"),
            ('{"schema": 1, "algorithm": "fcfs", "machines": [{"id": 0}], "params": {}, '
             '"ops": [[]]}', "ops[0]: expected an object, got list"),
            ('{"schema": 1, "algorithm": "fcfs", "machines": [{"id": 0}], "params": {}, '
             '"ops": [{"op": "advance", "t": NaN}]}', "ops[0]: field 't' must be a number, got NaN"),
            ('{"schema": 1, "algorithm": "fcfs", "machines": [{"id": 0}], "params": {}, '
             '"ops": [{"op": "submit_many", "jobs": [{"id": 0, "release": 0.0}]}]}',
             "ops[0]: jobs[0]: field 'sizes': required field missing"),
            ("not json", "not valid JSON (Expecting value"),
            ("[" * 100_000, "not valid JSON (maximum recursion depth"),
        ],
        ids=["array", "no-schema", "op-array", "advance-nan", "job-row", "not-json",
             "nested-past-recursion-limit"],
    )
    def test_restore_names_what_is_malformed(self, payload, cause):
        with pytest.raises(SessionStateError) as exc:
            SchedulerSession.restore(payload)
        assert cause in str(exc.value)

    def test_restore_keeps_infinite_sizes(self):
        # Job rows decode with the submit schema, which allows a machine a
        # job cannot run on (infinite size).
        session = open_session("rejection-flow", 2, epsilon=0.5)
        session.submit_many([Job(0, 0.0, (1.0, float("inf"))), Job(1, 0.5, (2.0, 1.0))])
        restored = SchedulerSession.restore(session.to_json())
        assert restored.to_json() == session.to_json()
        _assert_outcome_identical(restored.finalize(), session.finalize())

    def test_snapshot_after_finalize_rejected(self):
        session = open_session("fcfs", 2)
        session.submit(Job(0, 0.0, (1.0, 2.0)))
        session.finalize()
        with pytest.raises(SessionStateError, match="finalized"):
            session.snapshot()

    def test_deep_queue_snapshot_resumes_identically(self):
        # Snapshot in the middle of a burst (Fenwick stats materialised).
        instance = overload_burst_instance(num_machines=2, burst_jobs=40, trailing_shorts=80)
        session = open_session("rejection-flow", instance.machines, epsilon=0.4)
        cut = 60
        for job in instance.jobs[:cut]:
            session.submit(job)
        session.poll()
        restored = SchedulerSession.restore(session.to_json())
        for job in instance.jobs[cut:]:
            session.submit(job)
            restored.submit(job)
        _assert_outcome_identical(restored.finalize(), session.finalize())


# --------------------------------------------------------------------------------------
# Decision-event stream
# --------------------------------------------------------------------------------------


class TestDecisionStream:
    def test_stream_consistent_with_records(self):
        instance = InstanceGenerator(num_machines=3, seed=31).generate(150)
        session, outcome = _replay(instance, "rejection-flow", epsilon=0.5)
        events = session.events
        by_kind: dict[str, set[int]] = {"dispatch": set(), "start": set(),
                                        "complete": set(), "reject": set()}
        for event in events:
            by_kind[event.kind].add(event.job_id)
        for record in outcome.result.records.values():
            if record.rejected:
                assert record.job_id in by_kind["reject"]
                assert record.job_id not in by_kind["complete"]
            else:
                assert record.job_id in by_kind["dispatch"]
                assert record.job_id in by_kind["start"]
                assert record.job_id in by_kind["complete"]

    def test_stream_is_the_same_decision_events_in_both_modes(self):
        # The fused path builds events with ``tuple.__new__`` and its
        # records through their slots; the reference stepper uses the
        # constructors.  Both streams must hold the very same events.
        instance = SCENARIOS["multi-tenant-mix"].instance(400, num_machines=4, seed=2018)
        streams = {}
        for dispatch in DISPATCH_MODES:
            session, _ = _replay(instance, "rejection-flow", dispatch=dispatch, epsilon=0.5)
            streams[dispatch] = session.events
            assert all(type(event) is DecisionEvent for event in session.events)
        assert streams["indexed"] == streams["scan"]
        assert {event.reason for event in streams["indexed"]} == {None, "rule1", "rule2"}

    def test_stream_is_time_ordered(self):
        instance = InstanceGenerator(num_machines=2, seed=37).generate(60)
        session, _ = _replay(instance, "fcfs")
        times = [event.time for event in session.events]
        assert times == sorted(times)

    def test_handed_out_events_are_freed(self):
        # A long-lived stream keeps only what its consumer has not read:
        # handed-out events are dropped from the buffer, so memory stays
        # bounded.
        instance = InstanceGenerator(num_machines=2, seed=43).generate(200)
        session = open_session("rejection-flow", instance.machines, epsilon=0.5)
        handed_out = 0
        for job in instance.jobs:
            session.submit(job)
            handed_out += len(session.poll())
            assert len(session.events) == 0  # everything consumed was freed
        outcome = session.finalize()
        handed_out += len(session.take_events())
        unpolled = open_session("rejection-flow", instance.machines, epsilon=0.5)
        unpolled.submit_many(instance.jobs)
        ref = unpolled.finalize()
        assert handed_out == len(unpolled.events) == session.events_emitted
        _assert_outcome_identical(outcome, ref)

    def test_poll_hands_out_each_event_once(self):
        # The per-job polls hand out exactly the stream an unpolled
        # ingest-then-finalize run buffers, each event once.
        instance = InstanceGenerator(num_machines=2, seed=41).generate(50)
        session = open_session("rejection-flow", instance.machines, epsilon=0.5)
        handed_out: list[DecisionEvent] = []
        for job in instance.jobs:
            session.submit(job)
            handed_out.extend(session.poll())
        session.finalize()
        handed_out.extend(session.take_events())
        assert session.take_events() == [] and session.events == ()
        unpolled, _ = _replay(instance, "rejection-flow", epsilon=0.5)
        assert tuple(handed_out) == unpolled.events

    def test_event_dict_roundtrip(self):
        event = DecisionEvent("reject", 3.5, 7, machine=1, reason="rule2")
        assert DecisionEvent.from_dict(event.as_dict()) == event
        assert DecisionEvent.from_dict(
            {"kind": "start", "time": 1.0, "job_id": 2, "machine": 0, "speed": 2.0}
        ) == DecisionEvent("start", 1.0, 2, machine=0, speed=2.0)


# --------------------------------------------------------------------------------------
# stats() counters against the handed-out stream
# --------------------------------------------------------------------------------------


def _check_stats(session, stream: list) -> None:
    """Every stats() counter agrees with the decision events handed out so far."""
    stats = session.stats()
    kinds = Counter(event.kind for event in stream)
    assert stats["dispatched"] == kinds["dispatch"]
    assert stats["started"] == kinds["start"]
    assert stats["completed"] == kinds["complete"]
    assert stats["rejected"] == kinds["reject"]
    assert stats["backlog"] == stats["submitted"] - kinds["complete"] - kinds["reject"]
    assert stats["events_emitted"] == len(stream)
    assert stats["last_event_time"] == max((event.time for event in stream), default=0.0)


#: (algorithm, params, jobs): Rule 1 rejecting running jobs on a burst,
#: Theorem 2's speed-scaling engine, and the adaptive meta wrapper.
_STATS_CASES = {
    "rejection-flow-burst": (
        "rejection-flow", {"epsilon": 0.4},
        overload_burst_instance(num_machines=3, burst_jobs=80, trailing_shorts=120).jobs,
    ),
    "rejection-energy-flow": (
        "rejection-energy-flow", {"epsilon": 0.5},
        WeightedInstanceGenerator(num_machines=3, seed=5, alpha=2.5).generate(120).jobs,
    ),
    "meta": (
        "meta", {"policy": "threshold", "epsilon": 0.25},
        SCENARIOS["drift-ramp-heavytail"].instance(300, 3, 5).jobs,
    ),
}


class TestStatsFromStream:
    @pytest.mark.parametrize("dispatch", DISPATCH_MODES)
    @pytest.mark.parametrize("case", sorted(_STATS_CASES))
    def test_counters_match_handed_out_stream(self, case, dispatch):
        # The stream is collected with poll()/take_events(); halfway the
        # session is restored from a snapshot taken after a poll, so every
        # event it replays was already handed out by the original.
        algorithm, params, jobs = _STATS_CASES[case]
        machines = len(jobs[0].sizes)
        with dispatch_mode(dispatch):
            session = open_session(algorithm, machines, **params)
            stream: list[DecisionEvent] = []
            half = len(jobs) // 2
            for offset in range(0, len(jobs), 7):
                session.submit_many(jobs[offset : offset + 7])
                stream.extend(session.poll())
                _check_stats(session, stream)
                if offset < half <= offset + 7:
                    session = SchedulerSession.restore(session.to_json())
                    _check_stats(session, stream)
        assert session.dispatch == dispatch
        session.finalize()
        stream.extend(session.take_events())
        _check_stats(session, stream)
        assert session.stats()["backlog"] == 0
        started = {event.job_id for event in stream if event.kind == "start"}
        rejected = {event.job_id for event in stream if event.kind == "reject"}
        if case == "rejection-flow-burst":
            assert started & rejected  # some jobs were rejected while running


# --------------------------------------------------------------------------------------
# Session state machine and error paths
# --------------------------------------------------------------------------------------


class TestSessionErrors:
    def test_non_streaming_algorithm_rejected(self):
        for algorithm in ("yds", "srpt-pooled", "speed-augmentation", "config-lp-energy"):
            with pytest.raises(StreamingNotSupportedError, match="streaming"):
                open_session(algorithm, 2)

    def test_streaming_metadata_matches_gate(self):
        for algorithm in streaming_algorithms():
            assert get_solver(algorithm).supports_streaming

    def test_out_of_order_release_rejected(self):
        # The stepper refuses it; the session keeps no release check of its own.
        session = open_session("fcfs", 2)
        session.submit(Job(0, 5.0, (1.0, 1.0)))
        with pytest.raises(SimulationError, match="already reached 5.0; jobs are offered in"):
            session.submit(Job(1, 4.0, (1.0, 1.0)))
        assert session.num_submitted == 1 and session.stats()["watermark"] == 5.0

    def test_duplicate_id_rejected(self):
        session = open_session("fcfs", 2)
        session.submit(Job(0, 0.0, (1.0, 1.0)))
        with pytest.raises(SimulationError, match="already offered"):
            session.submit(Job(0, 1.0, (1.0, 1.0)))

    def test_submit_many_duplicate_id_is_atomic(self):
        # Regression: a rejected batch must leave the session (and the
        # stepper underneath) exactly as it was — previously the jobs
        # preceding the duplicate were half-ingested, desyncing
        # finalize()/snapshot() from the engine.
        session = open_session("fcfs", 2)
        session.submit(Job(0, 0.0, (1.0, 1.0)))
        with pytest.raises(SimulationError, match="already offered"):
            session.submit_many([Job(1, 1.0, (1.0, 1.0)), Job(0, 1.0, (2.0, 2.0))])
        assert session.num_submitted == 1
        # the session is still fully usable and consistent
        session.submit_many([Job(1, 1.0, (1.0, 1.0)), Job(2, 2.0, (1.0, 1.0))])
        outcome = session.finalize()
        assert sorted(outcome.result.records) == [0, 1, 2]

    def test_submit_many_duplicate_within_batch_is_atomic(self):
        session = open_session("fcfs", 2)
        with pytest.raises(SimulationError, match="already offered"):
            session.submit_many([Job(5, 0.0, (1.0, 1.0)), Job(5, 0.0, (1.0, 1.0))])
        assert session.num_submitted == 0
        assert session.snapshot()["ops"] == []

    def test_wrong_size_vector_rejected(self):
        session = open_session("fcfs", 2)
        with pytest.raises(InvalidParameterError, match="size vector"):
            session.submit(Job(0, 0.0, (1.0,)))

    def test_submit_after_finalize_rejected(self):
        session = open_session("fcfs", 2)
        session.submit(Job(0, 0.0, (1.0, 1.0)))
        session.finalize()
        with pytest.raises(SessionStateError, match="finalized"):
            session.submit(Job(1, 1.0, (1.0, 1.0)))
        with pytest.raises(SessionStateError, match="finalized"):
            session.poll()

    def test_finalize_is_idempotent(self):
        session = open_session("fcfs", 2)
        session.submit(Job(0, 0.0, (1.0, 1.0)))
        assert session.finalize() is session.finalize()

    def test_params_validated_at_open(self):
        with pytest.raises(InvalidParameterError):
            open_session("rejection-flow", 2, epsilon=-1.0)
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            open_session("rejection-flow", 2, nonsense=1)

    def test_machines_argument_validation(self):
        with pytest.raises(InvalidParameterError, match="machines"):
            open_session("fcfs", [])

    def test_empty_session_finalizes_to_empty_outcome(self):
        session = open_session("fcfs", 2)
        outcome = session.finalize()
        assert outcome.objective_value == 0.0
        assert outcome.result.records == {}

    def test_advance_to_blocks_late_submissions(self):
        session = open_session("fcfs", 2)
        session.submit(Job(0, 0.0, (1.0, 1.0)))
        session.advance_to(10.0)
        with pytest.raises(SimulationError, match="already reached 10.0"):
            session.submit(Job(1, 5.0, (1.0, 1.0)))

    @pytest.mark.parametrize("mode", DISPATCH_MODES)
    def test_advance_to_nan_is_refused_and_infinity_ends_the_stream(self, mode):
        instance = SCENARIOS["multi-tenant-mix"].instance(12, 2, 7, alpha=3.0)
        with dispatch_mode(mode):
            session = open_session("rejection-flow", 2, epsilon=0.5)
            session.submit_many(instance.jobs[:4])
            before = session.to_json()
            with pytest.raises(InvalidParameterError, match="NaN"):
                session.advance_to(float("nan"))
            assert session.to_json() == before  # nothing processed, nothing logged
            session.submit_many(instance.jobs[4:])
            session.advance_to(float("inf"))
            with pytest.raises(SimulationError, match="already reached inf"):
                session.submit(Job(99, instance.jobs[-1].release, (1.0, 1.0)))
            restored = SchedulerSession.restore(session.to_json())
        batch = solve(instance, "rejection-flow", dispatch=mode, epsilon=0.5)
        _assert_outcome_identical(session.finalize(), batch)
        _assert_outcome_identical(restored.finalize(), batch)

    @pytest.mark.parametrize("mode", DISPATCH_MODES)
    def test_stepper_advance_bound_blocks_late_offers(self, mode):
        # The stepper itself (a public API) enforces the advance_to bound,
        # not just the last processed event time.
        engine = FlowTimeEngine(Instance.build(1, []), dispatch=mode)
        stepper = engine.stepper(FCFSScheduler())
        stepper.offer(Job(0, 0.0, (1.0,)))
        stepper.advance_to(10.0)  # declares: no arrival at or before 10
        with pytest.raises(SimulationError, match="already reached"):
            stepper.offer(Job(1, 5.0, (1.0,)))
        stepper.offer(Job(2, 10.0, (1.0,)))  # at the bound is allowed


# --------------------------------------------------------------------------------------
# Engine stepper (the reentrant core under the session)
# --------------------------------------------------------------------------------------


@pytest.mark.parametrize("mode", DISPATCH_MODES)
class TestEngineStepper:
    # Both stepper classes: the fused fast path and the scan oracle.
    def _engine(self, mode, machines=1):
        fleet = Instance.build(machines, [])
        return FlowTimeEngine(fleet, dispatch=mode), FCFSScheduler()

    def test_step_on_empty_queue_returns_none(self, mode):
        engine, policy = self._engine(mode)
        stepper = engine.stepper(policy)
        assert stepper.step() is None
        assert stepper.peek_time() is None

    def test_advance_to_respects_time_bound(self, mode):
        engine, policy = self._engine(mode)
        stepper = engine.stepper(policy)
        stepper.offer(Job(0, 0.0, (1.0,)))
        stepper.offer(Job(1, 10.0, (1.0,)))
        assert stepper.advance_to(5.0) == 2  # arrival 0 + its completion at 1.0
        assert stepper.state.time == pytest.approx(1.0)
        assert stepper.drain() == 2
        result = stepper.finish()
        assert len(result.records) == 2

    def test_finish_with_pending_events_raises(self, mode):
        engine, policy = self._engine(mode)
        stepper = engine.stepper(policy)
        stepper.offer(Job(0, 0.0, (1.0,)))
        with pytest.raises(SimulationError, match="unprocessed"):
            stepper.finish()

    def test_offer_into_the_past_raises(self, mode):
        engine, policy = self._engine(mode)
        stepper = engine.stepper(policy)
        stepper.offer(Job(0, 0.0, (5.0,)))
        stepper.advance_to(0.0)
        assert stepper.state.time == 0.0
        stepper.drain()  # completion at 5.0
        with pytest.raises(SimulationError, match="already reached"):
            stepper.offer(Job(1, 2.0, (1.0,)))

    @pytest.mark.parametrize("across_calls", [False, True], ids=["one-call", "two-calls"])
    def test_out_of_order_offer_is_refused_and_leaves_the_stepper_unchanged(
        self, mode, across_calls
    ):
        # Jobs are offered in release order: a release below the previous
        # offer's is refused before anything is processed, the refused batch
        # leaves no trace, and the run then matches the batch run.
        jobs = [Job(k, float(k), (1.0 + k,)) for k in range(4)]
        instance = Instance.build(1, jobs)
        stepper = FlowTimeEngine(instance, dispatch=mode).stepper(FCFSScheduler())
        if across_calls:
            stepper.offer_many(jobs[:2])
            batch, late, bound = [jobs[3], jobs[2]], jobs[2], jobs[3].release
        else:
            batch, late, bound = [jobs[0], jobs[2], jobs[1], jobs[3]], jobs[1], jobs[2].release
        known = list(stepper.state.jobs_by_id.items())
        queued = len(stepper.queue)
        with pytest.raises(
            SimulationError,
            match=rf"^job {late.id} released at {late.release} but the stream already "
            rf"reached {bound}; jobs are offered in release order$",
        ):
            stepper.offer_many(batch)
        assert list(stepper.state.jobs_by_id.items()) == known
        assert len(stepper.queue) == queued and stepper.event_count == 0
        stepper.offer_many(jobs[len(known):])
        stepper.drain()
        result = stepper.finish()
        batch_run = FlowTimeEngine(instance, dispatch=mode).run(FCFSScheduler())
        assert result.records == batch_run.records
        assert result.intervals == batch_run.intervals

    def test_an_offer_from_the_observer_raises_the_release_bound(self, mode):
        # An observer may offer jobs while a run advances; the bound that
        # offer sets stays in place after the loop, in both modes.
        engine, policy = self._engine(mode)

        def offer_on_first_start(event):
            if event.kind == "start" and event.job_id == 0:
                stepper.offer(Job(1, 10.0, (1.0,)))

        stepper = engine.stepper(policy, offer_on_first_start)
        stepper.offer(Job(0, 0.0, (1.0,)))
        stepper.advance_to(2.0)
        assert stepper.peek_time() == 10.0
        with pytest.raises(SimulationError, match="already reached 10.0"):
            stepper.offer(Job(2, 5.0, (1.0,)))
        stepper.offer(Job(3, 10.0, (1.0,)))

    def test_finished_stepper_is_sealed(self, mode):
        engine, policy = self._engine(mode)
        stepper = engine.stepper(policy)
        stepper.offer(Job(0, 0.0, (1.0,)))
        stepper.drain()
        stepper.finish()
        with pytest.raises(SimulationError, match="finished"):
            stepper.offer(Job(1, 2.0, (1.0,)))
        with pytest.raises(SimulationError, match="finished"):
            stepper.step()

    def test_batch_stepper_offered_part_of_its_instance_cannot_finish(self, mode):
        # A batch stepper knows only the jobs offered to it; those of its
        # instance that never were still fail finish(), named in order.
        jobs = [Job(k, float(k), (1.0,)) for k in range(6)]
        engine = FlowTimeEngine(Instance.build(1, jobs), dispatch=mode)
        stepper = engine.stepper(FCFSScheduler())
        stepper.offer_many([jobs[0], jobs[1], jobs[4]])
        stepper.drain()
        with pytest.raises(
            SimulationError, match=r"^3 job\(s\) never finished nor were rejected: \[2, 3, 5\]$"
        ):
            stepper.finish()

    @pytest.mark.parametrize("across_calls", [False, True], ids=["one-call", "two-calls"])
    def test_batch_stepper_refuses_an_id_offered_twice(self, mode, across_calls):
        # The refused batch leaves no trace: the state's jobs and the event
        # queue are as before, and the run then finishes like a clean one.
        jobs = [Job(k, float(k), (1.0 + k,)) for k in range(4)]
        instance = Instance.build(1, jobs)
        stepper = FlowTimeEngine(instance, dispatch=mode).stepper(FCFSScheduler())
        if across_calls:
            stepper.offer_many(jobs[:2])
            batch, rest = [jobs[2], jobs[1], jobs[3]], jobs[2:]
        else:
            batch, rest = [jobs[0], jobs[1], jobs[2], jobs[1], jobs[3]], jobs
        known = list(stepper.state.jobs_by_id.items())
        queued = len(stepper.queue)
        with pytest.raises(SimulationError, match=r"^job id 1 was already offered$"):
            stepper.offer_many(batch)
        assert list(stepper.state.jobs_by_id.items()) == known
        assert len(stepper.queue) == queued
        stepper.offer_many(rest)
        stepper.drain()
        result = stepper.finish()
        batch_run = FlowTimeEngine(instance, dispatch=mode).run(FCFSScheduler())
        assert result.records == batch_run.records
        assert result.intervals == batch_run.intervals

    def test_run_is_equivalent_to_manual_stepping(self, mode):
        instance = InstanceGenerator(num_machines=2, seed=53).generate(40)
        policy = RejectionFlowTimeScheduler(epsilon=0.5)
        batch = FlowTimeEngine(instance, dispatch=mode).run(policy)
        fleet = Instance(instance.machines, (), name=instance.name)
        engine = FlowTimeEngine(fleet, dispatch=mode)
        stepper = engine.stepper(RejectionFlowTimeScheduler(epsilon=0.5))
        for job in instance.jobs:
            stepper.offer(job)
        while stepper.step() is not None:
            pass
        manual = stepper.finish(instance)
        assert manual.records == batch.records
        assert manual.intervals == batch.intervals
        assert manual.extras == batch.extras


# --------------------------------------------------------------------------------------
# NDJSON wire format
# --------------------------------------------------------------------------------------


class TestNdjson:
    def test_parse_submit_job_rows(self):
        request = parse_request(
            '{"op": "submit", "session": "s", "jobs": [{"id": 3, "release": 1.5, '
            '"sizes": [2.0, 4.0]}]}'
        )
        assert request.op == "submit" and request.jobs == (Job(3, 1.5, (2.0, 4.0)),)

    def test_parse_errors(self):
        with pytest.raises(ServiceProtocolError, match="line 7: not valid JSON"):
            parse_request("{nope", lineno=7)
        with pytest.raises(ServiceProtocolError, match="line 2: expected a JSON object"):
            parse_request("[1, 2]", lineno=2)
        # A job line without a control envelope is not a request.
        with pytest.raises(ServiceProtocolError, match="no 'op' field"):
            parse_request('{"id": 1, "release": 0.0, "sizes": [1.0]}', lineno=4)
        # A malformed job row is reported with the line number and field
        # name (the richer TraceSchemaError contract).
        with pytest.raises(TraceSchemaError, match="line 3: field 'release'"):
            parse_request('{"op": "submit", "session": "s", "jobs": [{"id": 1}]}', lineno=3)

    def test_read_jobs_skips_blank_and_comment_lines(self):
        import io

        stream = io.StringIO(
            '\n# header comment\n{"id": 0, "release": 0.0, "sizes": [1.0]}\n\n'
        )
        rows = list(iter_ndjson_jobs(stream))
        assert len(rows) == 1 and rows[0][0] == 3 and rows[0][1].id == 0

    def test_event_line_is_canonical(self):
        line = decision_line(DecisionEvent("dispatch", 1.0, 0, machine=2))
        assert line == (
            '{"event":"decision","job_id":0,"kind":"dispatch",'
            '"machine":2,"reason":null,"speed":null,"time":1.0}'
        )
