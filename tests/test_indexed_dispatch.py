"""Differential harness over the two dispatch modes, plus unit tests.

The contract of the fast path (``indexed``: lazily-invalidated heaps, the
fused λ-sweep, the array event queue and the fused event loop) is that it
changes *how* decisions are computed but never *which* decisions are made:
``FlowTimeEngine(instance, dispatch=mode)`` must produce byte-identical
:class:`SimulationResult` objects for every ``mode`` in
:data:`~repro.simulation.engine.DISPATCH_MODES` — the fast path and the
``scan`` oracle — for every policy on every instance.  The equivalence suite
drives that claim across the property-based instance generators of
``test_property_based`` and the named scenario catalog; the unit tests cover
the data structures directly, including lazy invalidation under mid-run
Rule-1 rejection.
"""

from __future__ import annotations

import math
import re
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_based import flow_instances

from repro.baselines.fcfs import FCFSScheduler
from repro.baselines.greedy import GreedyDispatchScheduler
from repro.baselines.immediate_rejection import ImmediateRejectionScheduler
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.core.flow_time_energy import RejectionEnergyFlowScheduler
from repro.core.ordering import spt_key
from repro.exceptions import SimulationError
from repro.simulation.engine import (
    DISPATCH_MODES,
    FlowTimeEngine,
    default_dispatch_mode,
)
from repro.simulation.indexed import (
    IndexedPending,
    PendingPrefixStats,
    build_priority_ranks,
)
from repro.simulation.fused import FusedStepper
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.speed_engine import SpeedScalingEngine
from repro.simulation.state import PREFIX_SCAN_CUTOFF, EngineState
from repro.simulation.stepper import EngineStepper
from repro.workloads.adversarial import overload_burst_instance
from repro.workloads.generators import InstanceGenerator
from repro.workloads.scenarios import SCENARIOS, get_scenario
from repro.workloads.traces import chunks_to_instance

_EPSILONS = st.sampled_from([0.1, 0.3, 0.5, 0.8])


def _assert_identical(*results):
    """Byte-level equivalence of two or more simulation results."""
    first = results[0]
    for other in results[1:]:
        assert first.records == other.records
        assert first.intervals == other.intervals
        assert first.extras == other.extras
        assert first.algorithm == other.algorithm


def _run_modes(instance, policy, engine_cls=FlowTimeEngine, modes=DISPATCH_MODES):
    return [engine_cls(instance, dispatch=mode).run(policy) for mode in modes]


def _drive(stepper, jobs, script):
    """Run one streaming call sequence; returns what every call observed."""
    seen = []

    def note(reply):
        seen.append((reply, stepper.peek_time(), stepper.event_count, len(stepper.queue)))

    chunks = [list(jobs)]
    if script == "chunks":
        chunks = [list(jobs[i:i + 9]) for i in range(0, len(jobs), 9)]
    for chunk, after in zip(chunks, chunks[1:] + [[]]):
        for job in chunk:
            note(stepper.offer(job))
        if after:
            note(stepper.advance_to(min(job.release for job in after)))
    if script == "advance-to-each-release":
        for release in sorted({job.release for job in jobs}):
            note(stepper.advance_to(release))  # bounds at exact event times
    for _ in range(40 if script == "step-then-drain" else 0):
        note(stepper.step())
    note(stepper.drain())
    return seen


# --------------------------------------------------------------------------------------
# Equivalence suite (property-based)
# --------------------------------------------------------------------------------------


class TestDispatchEquivalence:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(), epsilon=_EPSILONS)
    def test_theorem1_identical(self, instance, epsilon):
        _assert_identical(*_run_modes(instance, RejectionFlowTimeScheduler(epsilon=epsilon)))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(), epsilon=_EPSILONS)
    def test_theorem1_rule_ablations_identical(self, instance, epsilon):
        for rule1, rule2 in ((True, False), (False, True), (False, False)):
            policy = RejectionFlowTimeScheduler(
                epsilon=epsilon, enable_rule1=rule1, enable_rule2=rule2
            )
            _assert_identical(*_run_modes(instance, policy))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances())
    def test_baselines_identical(self, instance):
        for policy in (
            GreedyDispatchScheduler("spt"),
            GreedyDispatchScheduler("fcfs"),
            FCFSScheduler(),
            ImmediateRejectionScheduler(0.25, "largest"),
            ImmediateRejectionScheduler(0.25, "overload"),
        ):
            _assert_identical(*_run_modes(instance, policy))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(max_jobs=10), epsilon=_EPSILONS)
    def test_theorem2_speed_scaling_identical(self, instance, epsilon):
        alpha_instance = instance.with_alpha(2.5)
        policy = RejectionEnergyFlowScheduler(epsilon=epsilon)
        _assert_identical(
            *_run_modes(alpha_instance, policy, engine_cls=SpeedScalingEngine)
        )

    def test_large_burst_identical(self):
        # Deep queues force the Fenwick branch of the order statistics and
        # long stale chains in the select heaps.
        instance = overload_burst_instance(num_machines=4, burst_jobs=60, trailing_shorts=150)
        results = _run_modes(instance, RejectionFlowTimeScheduler(epsilon=0.4))
        _assert_identical(*results)
        assert any(r.rejected for r in results[0].records.values())

    def test_generated_poisson_identical(self):
        instance = InstanceGenerator(num_machines=6, seed=42, size_distribution="pareto").generate(
            800
        )
        _assert_identical(*_run_modes(instance, RejectionFlowTimeScheduler(epsilon=0.5)))
        # Greedy on a chunk-generated instance: deeper queues than the at
        # most 12 jobs test_baselines_identical draws.
        generator = InstanceGenerator(
            num_machines=8, seed=2018, size_distribution="pareto", load=0.9
        )
        chunked = chunks_to_instance(
            generator.iter_job_chunks(300), machines=generator.machines()
        )
        _assert_identical(*_run_modes(chunked, GreedyDispatchScheduler("spt")))

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    def test_scenario_catalog_identical(self, scenario_name):
        # Every named heavy-traffic shape (heavy_tail, diurnal, flash_crowd,
        # multi_tenant, load_ramp) through the full dispatch matrix.
        instance = get_scenario(scenario_name).instance(num_jobs=300, num_machines=5, seed=11)
        _assert_identical(*_run_modes(instance, RejectionFlowTimeScheduler(epsilon=0.5)))

    @pytest.mark.parametrize(
        "script",
        ["advance-to-each-release", "step-then-drain", "chunks"],
    )
    @pytest.mark.parametrize("source", ["burst", "heavy-tail-pareto"])
    def test_streaming_call_sequences_identical(self, script, source):
        # The fused advance_to/drain loop, the inherited step() and the
        # array queue's cursor against the scan oracle.
        if source == "burst":
            instance = overload_burst_instance(num_machines=2, burst_jobs=30, trailing_shorts=60)
        else:
            instance = get_scenario(source).instance(num_jobs=150, num_machines=3, seed=5)
        fleet = Instance(instance.machines, (), name=instance.name)
        runs = []
        for mode in DISPATCH_MODES:
            decisions = []
            policy = RejectionFlowTimeScheduler(epsilon=0.3)
            stepper = FlowTimeEngine(fleet, dispatch=mode).stepper(policy, decisions.append)
            seen = _drive(stepper, instance.jobs, script)
            runs.append((seen, decisions, stepper.finish(instance)))
        (seen, decisions, result), (other_seen, other_decisions, other) = runs
        assert seen == other_seen and decisions == other_decisions
        assert any(d.kind == "reject" for d in decisions)
        _assert_identical(result, other)

    def test_streaming_rank_rebuilds_identical(self, monkeypatch):
        # Chunked offers of a stream whose queues stay past the cutoff: jobs
        # ingested after the ranks were built arrive outside the rank
        # universe and take the scan fallback until the registered universe
        # has doubled, when the ranks are rebuilt.  Both paths must run in
        # both modes, and the two modes must agree on every call.
        reached = {"builds": 0, "outside": 0}
        materialise = EngineState._materialise_stats
        pending_prefix = EngineState.pending_prefix

        def counting_materialise(state):
            reached["builds"] += 1
            return materialise(state)

        def counting_prefix(state, machine, job_id):
            stats = state.prefix_stats
            deep = len(state.machines[machine].pending) > PREFIX_SCAN_CUTOFF
            if deep and stats is not None and not stats.knows(job_id):
                reached["outside"] += 1
            return pending_prefix(state, machine, job_id)

        monkeypatch.setattr(EngineState, "_materialise_stats", counting_materialise)
        monkeypatch.setattr(EngineState, "pending_prefix", counting_prefix)
        jobs = [Job(i, 0.01 * i, (40.0 + i % 7, 45.0 + i % 5)) for i in range(200)]
        fleet = Instance.build(2, [])
        runs = []
        for mode in DISPATCH_MODES:
            reached.update(builds=0, outside=0)
            decisions = []
            policy = RejectionFlowTimeScheduler(epsilon=0.3)
            stepper = FlowTimeEngine(fleet, dispatch=mode).stepper(policy, decisions.append)
            seen = _drive(stepper, jobs, "chunks")
            assert reached["builds"] >= 2, (mode, reached)
            assert reached["outside"] >= 1, (mode, reached)
            runs.append((seen, decisions, stepper.finish(Instance.build(2, jobs))))
        (seen, decisions, result), (other_seen, other_decisions, other) = runs
        assert seen == other_seen and decisions == other_decisions
        assert any(d.kind == "reject" for d in decisions)
        _assert_identical(result, other)


# --------------------------------------------------------------------------------------
# Rule-2 victim heap vs brute force
# --------------------------------------------------------------------------------------


class _ShadowVictimScheduler(RejectionFlowTimeScheduler):
    """Theorem 1 scheduler asserting the victim heap against a brute-force scan."""

    def _rule2_victim(self, arriving, machine, state):
        victim = super()._rule2_victim(arriving, machine, state)
        candidates = list(state.pending_jobs(machine)) + [arriving]
        expected = max(
            candidates, key=lambda cand: (cand.size_on(machine), -cand.release, cand.id)
        )
        assert victim.id == expected.id, (victim.id, expected.id)
        return victim


class TestRule2VictimHeap:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=flow_instances(max_jobs=14), epsilon=_EPSILONS)
    def test_heap_matches_brute_force(self, instance, epsilon):
        FlowTimeEngine(instance).run(_ShadowVictimScheduler(epsilon=epsilon))

    def test_heap_matches_brute_force_on_burst(self):
        instance = overload_burst_instance(num_machines=3, burst_jobs=30, trailing_shorts=60)
        FlowTimeEngine(instance).run(_ShadowVictimScheduler(epsilon=0.5))


# --------------------------------------------------------------------------------------
# IndexedPending unit tests
# --------------------------------------------------------------------------------------


def _job(job_id: int, size: float, release: float = 0.0) -> Job:
    return Job(id=job_id, release=release, sizes=(size,))


class TestIndexedPending:
    def test_argmin_in_key_order(self):
        index = IndexedPending(1, spt_key)
        live = {}
        for job in (_job(0, 5.0), _job(1, 2.0), _job(2, 9.0)):
            index.push(0, job)
            live[job.id] = None
        assert index.argmin(0, live).id == 1

    def test_lazy_invalidation_skips_stale_entries(self):
        index = IndexedPending(1, spt_key)
        live = {}
        for job in (_job(0, 1.0), _job(1, 2.0), _job(2, 3.0)):
            index.push(0, job)
            live[job.id] = None
        # Job 0 starts (leaves pending) without touching the heap: the stale
        # head is discarded on the next argmin.
        del live[0]
        assert index.heap_size(0) == 3
        assert index.argmin(0, live).id == 1
        assert index.heap_size(0) == 2  # the stale entry was popped, not job 1

    def test_argmin_empty_when_all_stale(self):
        index = IndexedPending(1, spt_key)
        index.push(0, _job(0, 1.0))
        assert index.argmin(0, {}) is None
        assert index.heap_size(0) == 0

    def test_mid_run_rule1_rejection_invalidates_running_job(self):
        # One long job starts, then ceil(1/eps)=2 short arrivals trigger a
        # Rule-1 rejection of the running job.  The heap entry of the long
        # job went stale when it started; the rejection must not resurrect
        # it, and the short jobs must win every later argmin.
        jobs = [Job(0, 0.0, (100.0,)), Job(1, 1.0, (1.0,)), Job(2, 2.0, (1.0,))]
        instance = Instance.build(1, jobs)
        policy = RejectionFlowTimeScheduler(epsilon=0.5, enable_rule2=False)
        results = _run_modes(instance, policy)
        result = results[0]
        assert result.record(0).rejected
        assert result.record(0).rejection_reason == "rule1"
        assert result.record(1).finished and result.record(2).finished
        _assert_identical(*results)

    def test_mid_run_rejection_of_pending_job(self):
        # Rule 2 rejects a *pending* job: its heap entry must be skipped as
        # stale when it surfaces.
        instance = overload_burst_instance(num_machines=1, burst_jobs=6, trailing_shorts=10)
        policy = RejectionFlowTimeScheduler(epsilon=0.5)
        results = _run_modes(instance, policy)
        assert policy.rule2_events, "scenario must fire Rule 2"
        _assert_identical(*results)


def _lexsort_ranks(jobs, num_machines):
    """The oracle: :func:`build_priority_ranks` as one ``np.lexsort`` per machine."""
    import numpy as np

    ids = [job.id for job in jobs]
    rows = dict(zip(ids, range(len(ids))))
    ranks = array("q", [0]) * (len(ids) * num_machines)
    if not jobs:
        return rows, ranks
    id_col = np.array(ids)
    releases = np.array([job.release for job in jobs], dtype=float)
    sizes = np.array([job.sizes for job in jobs], dtype=float)
    table = np.frombuffer(ranks, dtype=np.int64).reshape(len(ids), num_machines)
    positions = np.arange(len(ids))
    for machine in range(num_machines):
        # lexsort sorts by the LAST key first: size is the primary key.
        table[np.lexsort((id_col, releases, sizes[:, machine])), machine] = positions
    return rows, ranks


@st.composite
def _rank_universes(draw) -> tuple[list[Job], int]:
    """Jobs registered in no particular order, with tied sizes and releases and
    forbidden (``inf``) machines."""
    num_machines = draw(st.integers(1, 4))
    sizes = st.lists(
        st.sampled_from([0.25, 1.0, 3.0, math.inf]), min_size=num_machines, max_size=num_machines
    ).filter(lambda vector: min(vector) < math.inf)
    ids = draw(st.lists(st.integers(0, 10**6), max_size=40, unique=True))
    jobs = [
        Job(job_id, draw(st.sampled_from([0.0, 0.5, 2.5, 7.0])), tuple(draw(sizes)))
        for job_id in ids
    ]
    return jobs, num_machines


class TestPendingPrefixStats:
    def test_ranks_match_sorted_order(self):
        # Ties on size break by release, then by id; each machine ranks by
        # its own size column; ids need not be dense or sorted.  One
        # ``id -> row`` dict serves every machine, and the ranks are one
        # row-major array read as ``ranks[row * m + machine]``.
        jobs = [
            Job(9, 1.0, (2.0, 7.0)),
            Job(4, 0.0, (2.0, 7.0)),
            Job(6, 0.0, (2.0, 1.0)),
            Job(2, 3.0, (1.0, float("inf"))),
            Job(0, 0.0, (5.0, 9.0)),
        ]
        rows, ranks = build_priority_ranks(jobs, 2)
        assert rows == {9: 0, 4: 1, 6: 2, 2: 3, 0: 4}
        assert ranks.typecode == "q" and len(ranks) == 2 * len(jobs)
        stats = PendingPrefixStats(rows, ranks, 2)
        assert stats.universe_size == len(jobs)
        for machine in range(2):
            expected = sorted(jobs, key=lambda j, m=machine: spt_key(j, m))
            assert [ranks[rows[j.id] * 2 + machine] for j in expected] == list(range(len(jobs)))
            assert [stats.rank(machine, j.id) for j in expected] == list(range(len(jobs)))
        assert all(stats.knows(job.id) for job in jobs) and not stats.knows(1)
        rows, ranks = build_priority_ranks([], 3)
        assert rows == {} and len(ranks) == 0

    def test_ranks_of_a_large_universe_stay_small(self):
        # 20,000 jobs on 8 machines: the shared row dict and the flat array
        # of 8-byte ranks retain about 2.4 MiB, where one dict of boxed ints
        # per machine would retain 9.3 MiB.
        import tracemalloc

        jobs = [
            Job.trusted(i, float(i // 4), tuple(float(1 + (i * 7 + m * 13) % 101) for m in range(8)))
            for i in range(20_000)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ranks = build_priority_ranks(jobs, 8)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ranks[1]) == 8 * len(jobs)
        assert retained < 4 * 2**20, f"{retained / 2**20:.2f} MiB retained"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(universe=_rank_universes())
    def test_ranks_equal_the_lexsort_oracle(self, universe):
        jobs, num_machines = universe
        assert build_priority_ranks(jobs, num_machines) == _lexsort_ranks(jobs, num_machines)

    def test_stats_below_counts_and_sums(self):
        jobs = [_job(0, 5.0), _job(1, 2.0), _job(2, 3.0), _job(3, 9.0)]
        stats = PendingPrefixStats(*build_priority_ranks(jobs, 1), 1)
        for job in jobs[:3]:
            stats.add(0, job.id, job.sizes[0])
        # Job 3 (size 9) is preceded by all three pending jobs.
        count, total = stats.prefix_of(0, 3)
        assert count == 3
        assert total == pytest.approx(5.0 + 2.0 + 3.0)
        # Job 0 (size 5) is preceded by sizes 2 and 3.
        count, total = stats.prefix_of(0, 0)
        assert count == 2
        assert total == pytest.approx(2.0 + 3.0)
        stats.remove(0, 1, 2.0)
        count, total = stats.prefix_of(0, 0)
        assert count == 1
        assert total == pytest.approx(3.0)


@pytest.mark.parametrize("mode", DISPATCH_MODES)
class TestPendingOrder:
    def test_pending_jobs_stay_in_dispatch_order_after_removals(self, mode):
        # A machine's queue is a dict of ids in dispatch order: removals
        # (starts and rejections) keep the others' order, and a job
        # dispatched again goes last.
        jobs = [_job(k, float(k + 1)) for k in range(6)]
        stepper = FlowTimeEngine(Instance.build(1, jobs), dispatch=mode).stepper(FCFSScheduler())
        stepper.offer_many(jobs)
        state = stepper.state
        for job_id in (3, 1, 4, 0, 5, 2):
            state.add_pending(0, jobs[job_id])
        state.remove_pending(0, 4)
        state.remove_pending(0, 3)
        assert [job.id for job in state.pending_jobs(0)] == [1, 0, 5, 2]
        state.remove_pending(0, 2)
        state.add_pending(0, jobs[3])
        assert [job.id for job in state.pending_jobs(0)] == [1, 0, 5, 3]
        assert list(state.machine_pending(0)) == [1, 0, 5, 3]
        assert 4 not in state.machine_pending(0) and 3 in state.machine_pending(0)
        assert state.pending_size_sum(0) == 2.0 + 1.0 + 6.0 + 4.0


class TestDispatchModes:
    def test_default_mode_is_indexed(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        assert default_dispatch_mode() == "indexed"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "scan")
        assert default_dispatch_mode() == "scan"
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        assert FlowTimeEngine(instance).dispatch == "scan"

    def test_invalid_env_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "quantum")
        with pytest.raises(SimulationError):
            default_dispatch_mode()

    def test_invalid_explicit_mode_rejected(self):
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        with pytest.raises(SimulationError):
            FlowTimeEngine(instance, dispatch="quantum")

    def test_invalid_mode_error_names_valid_modes(self, monkeypatch):
        # The error must tell the operator what the valid values are.
        monkeypatch.setenv("REPRO_DISPATCH", "simd")
        with pytest.raises(SimulationError, match="simd"):
            default_dispatch_mode()

    def test_modes_select_stepper_classes(self):
        # Exactly two stepper classes: the fused fast path and the oracle.
        assert DISPATCH_MODES == ("indexed", "scan")
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        policy = RejectionFlowTimeScheduler(0.5)
        assert type(FlowTimeEngine(instance).stepper(policy)) is FusedStepper
        assert type(FlowTimeEngine(instance, dispatch="scan").stepper(policy)) is EngineStepper

    def test_removed_vectorized_mode_rejected(self, monkeypatch):
        instance = Instance.build(1, [Job(0, 0.0, (1.0,))])
        with pytest.raises(SimulationError, match="dispatch must be one of"):
            FlowTimeEngine(instance, dispatch="vectorized")
        monkeypatch.setenv("REPRO_DISPATCH", "vectorized")
        with pytest.raises(SimulationError, match="REPRO_DISPATCH must be one of"):
            default_dispatch_mode()


class TestCampaignStoreEquivalence:
    def test_smoke_grid_stores_byte_identical_across_modes(self, tmp_path, monkeypatch):
        # The real equivalence gate: compute the smoke grid under each
        # dispatch mode into its own store and compare the artifact bytes.
        # (Re-running one mode against the other's store only proves the
        # cache keys are stable — cache hits skip computation entirely.)
        from repro.campaigns import ArtifactStore, get_grid, run_campaign

        tasks = get_grid("smoke").tasks()
        payloads = {}
        for mode in DISPATCH_MODES:
            monkeypatch.setenv("REPRO_DISPATCH", mode)
            store = ArtifactStore(tmp_path / mode)
            summary = run_campaign(tasks, store)
            assert summary.computed == len(tasks)
            payloads[mode] = sorted(
                (path.name, path.read_bytes())
                for path in (tmp_path / mode).rglob("*.json")
            )
        for mode in DISPATCH_MODES[1:]:
            assert payloads[DISPATCH_MODES[0]] == payloads[mode], mode
        assert payloads[DISPATCH_MODES[0]], "stores must not be empty"


class TestDetachedState:
    def test_select_next_works_without_an_engine(self):
        # Pre-index behavior: policies are usable on a hand-built
        # EngineState (unit tests, custom tooling) without install_priority.
        from repro.simulation.state import EngineState

        jobs = [Job(0, 0.0, (5.0,)), Job(1, 0.0, (2.0,)), Job(2, 1.0, (2.0,))]
        instance = Instance.build(1, jobs)
        state = EngineState(instance)
        for job in jobs:
            state.register_job(job)
        state.machines[0].pending.update(dict.fromkeys([0, 1, 2]))
        assert FCFSScheduler().select_next(0.0, 0, state) == 0  # earliest release
        assert RejectionFlowTimeScheduler(0.5).select_next(0.0, 0, state) == 1  # SPT
        assert GreedyDispatchScheduler("spt").select_next(0.0, 0, state) == 1
        assert ImmediateRejectionScheduler(0.2).select_next(0.0, 0, state) == 1


@pytest.mark.parametrize("mode", DISPATCH_MODES)
class TestIdlingPolicyRefused:
    # A policy asked about an idle machine with pending work must start one
    # of those jobs: the engines refuse None, naming the policy and the
    # machine, in the fused loop, the inherited step() and both models.
    class HoldBack(FCFSScheduler):
        name = "hold-back"

        def select_next(self, t, machine, state):
            return None if t < 5.0 else super().select_next(t, machine, state)

    @staticmethod
    def _message(policy):
        return (
            rf"^policy {re.escape(repr(policy.name))} must start one of the 1 job\(s\) "
            r"pending on idle machine 1, not None$"
        )

    def _jobs(self):
        return [Job(0, 0.0, (math.inf, 1.0)), Job(1, 5.0, (1.0, 1.0))]

    @pytest.mark.parametrize("drive", ["drain", "step"])
    def test_flow_time_engine(self, mode, drive):
        policy = self.HoldBack()
        stepper = FlowTimeEngine(Instance.build(2, self._jobs()), dispatch=mode).stepper(policy)
        stepper.offer_many(stepper.engine.instance.jobs)
        with pytest.raises(SimulationError, match=self._message(policy)):
            stepper.drain() if drive == "drain" else stepper.step()

    def test_speed_scaling_engine(self, mode):
        class HoldBackSpeed(RejectionEnergyFlowScheduler):
            def select_next(self, t, machine, state):
                return None if t < 5.0 else super().select_next(t, machine, state)

        policy = HoldBackSpeed(epsilon=0.5)
        instance = Instance.build(2, self._jobs()).with_alpha(2.0)
        with pytest.raises(SimulationError, match=self._message(policy)):
            SpeedScalingEngine(instance, dispatch=mode).run(policy)
