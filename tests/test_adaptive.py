"""Adaptive meta-scheduler subsystem: monitor, switch policies, ``meta`` solver.

Four contracts are enforced here:

* **Telemetry** — the :class:`LoadMonitor` statistics are pure functions of
  the event-sequence prefix: O(1) running sums agree with naive recomputes,
  the moment-based tail index is scale-invariant and orders heavy windows
  below light ones, and degenerate windows report "no evidence" (``inf``).
* **Switch policies** — the threshold controller's regime map (calm /
  shed-light / shed-heavy), its one-way escalation and its asymmetric
  confirmation streaks; the bandit's explore-then-exploit order and margin
  hysteresis; validation of every knob.
* **The ``meta`` solver** — a single-candidate portfolio is byte-identical
  to the fixed policy at the same budget (epsilon forwarding), forced plan
  switches land in the outcome extras, and batch/session runs agree byte for
  byte across both dispatch modes.
* **Hot switching** — ``MetaSchedulerSession.hot_switch`` at an arbitrary
  index is indistinguishable from a session configured with that switch plan
  from the start (property-based, all dispatch modes), which is what makes
  snapshot/restore and live re-planning safe.

The E17 acceptance check — the meta-scheduler's drifting-scenario regret
stays strictly below the worst fixed policy everywhere and beats every fixed
policy somewhere — runs at the experiment's default configuration.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from conftest import dispatch_mode
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_based import flow_instances

from repro.adaptive import MetaSchedulerSession
from repro.adaptive.monitor import LoadMonitor
from repro.adaptive.policies import (
    BanditSwitchPolicy,
    ThresholdSwitchPolicy,
    make_switch_policy,
)
from repro.adaptive.solver import DEFAULT_CANDIDATES, MetaSchedulingPolicy
from repro.cli import main as cli_main
from repro.exceptions import InvalidParameterError, SessionStateError
from repro.experiments import run_experiment
from repro.service import open_session
from repro.simulation.engine import DISPATCH_MODES
from repro.simulation.job import Job
from repro.simulation.stepper import DecisionEvent
from repro.solvers import solve
from repro.utils.serialization import canonical_json
from repro.workloads.generators import InstanceGenerator



def _job(job_id: int, release: float, size: float) -> Job:
    return Job(id=job_id, release=release, sizes=(size,))


def _assert_outcome_identical(left, right):
    assert left.objective_value == right.objective_value
    assert left.breakdown == right.breakdown
    assert left.rejected_count == right.rejected_count
    assert left.result.records == right.result.records
    assert left.result.intervals == right.result.intervals
    assert left.result.extras == right.result.extras


# --------------------------------------------------------------------------------------
# Load monitor
# --------------------------------------------------------------------------------------


class TestLoadMonitor:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            LoadMonitor(window=1)

    def test_tail_index_needs_two_sizes(self):
        monitor = LoadMonitor(window=8)
        assert math.isinf(monitor.tail_index())
        monitor.on_arrival(0.0, _job(0, 0.0, 3.0))
        assert math.isinf(monitor.tail_index())

    def test_tail_index_degenerate_window_is_inf(self):
        monitor = LoadMonitor(window=8)
        for k in range(5):
            monitor.on_arrival(float(k), _job(k, float(k), 2.0))
        assert math.isinf(monitor.tail_index())

    def test_tail_index_matches_closed_form(self):
        # Sizes (1, 3): mean 2, variance 1, SCV 1/4 -> 1 + sqrt(1 + 4).
        monitor = LoadMonitor(window=8)
        monitor.on_arrival(0.0, _job(0, 0.0, 1.0))
        monitor.on_arrival(1.0, _job(1, 1.0, 3.0))
        assert monitor.tail_index() == pytest.approx(1.0 + math.sqrt(5.0))

    def test_tail_index_is_scale_invariant(self):
        sizes = [1.0, 4.0, 2.0, 9.0, 1.5]
        plain, scaled = LoadMonitor(window=8), LoadMonitor(window=8)
        for k, size in enumerate(sizes):
            plain.on_arrival(float(k), _job(k, float(k), size))
            scaled.on_arrival(float(k), _job(k, float(k), 1000.0 * size))
        assert plain.tail_index() == pytest.approx(scaled.tail_index())

    def test_tail_index_orders_heavy_below_light(self):
        heavy, light = LoadMonitor(window=16), LoadMonitor(window=16)
        for k in range(12):
            # One enormous outlier among small jobs vs a narrow uniform band.
            heavy.on_arrival(float(k), _job(k, float(k), 200.0 if k == 5 else 1.0))
            light.on_arrival(float(k), _job(k, float(k), 1.0 + 0.1 * k))
        assert heavy.tail_index() < light.tail_index()

    def test_window_eviction_matches_naive_recompute(self):
        sizes = [3.0, 1.0, 7.0, 2.0, 9.0, 4.0, 8.0, 5.0, 6.0, 2.5]
        window = 4
        monitor = LoadMonitor(window=window)
        for k, size in enumerate(sizes):
            monitor.on_arrival(float(k), _job(k, float(k), size))
        tail = sizes[-window:]
        mean = sum(tail) / window
        variance = sum(s * s for s in tail) / window - mean * mean
        expected = 1.0 + math.sqrt(1.0 + (mean * mean) / variance)
        assert monitor.tail_index() == pytest.approx(expected)

    def test_arrival_rate_over_window(self):
        monitor = LoadMonitor(window=4)
        assert monitor.arrival_rate() == 0.0
        for k in range(8):
            monitor.on_arrival(2.0 * k, _job(k, 2.0 * k, 1.0))
        # Window holds the last 4 arrival times spanning 6 time units.
        assert monitor.arrival_rate() == pytest.approx(3.0 / 6.0)

    def test_backlog_and_terminal_windows(self):
        monitor = LoadMonitor(window=4)
        for k in range(3):
            monitor.on_arrival(float(k), _job(k, float(k), 5.0))
        assert monitor.backlog == 3
        monitor.observe(DecisionEvent(kind="complete", time=4.0, job_id=0))
        monitor.observe(DecisionEvent(kind="reject", time=5.0, job_id=1, reason="rule1"))
        assert monitor.backlog == 1
        assert monitor.completed == 1 and monitor.rejected == 1
        assert monitor.rejection_rate() == pytest.approx(0.5)
        # Flows: job 0 completed at 4 (released 0), job 1 rejected at 5 (released 1).
        assert monitor.mean_flow() == pytest.approx((4.0 + 4.0) / 2.0)
        assert monitor.last_event_time == 5.0

    def test_snapshot_as_dict_maps_non_finite_to_none(self):
        monitor = LoadMonitor(window=4)
        payload = monitor.snapshot().as_dict()
        assert payload["tail_index"] is None
        assert payload["arrivals"] == 0
        json.dumps(payload)  # strict JSON for the service wire


# --------------------------------------------------------------------------------------
# Switch policies
# --------------------------------------------------------------------------------------


class _FakeMonitor:
    """Minimal monitor stand-in exposing what the policies read."""

    def __init__(self, backlog=0, arrivals=0, window=64, tail=math.inf, flow=0.0):
        self.backlog = backlog
        self.arrivals = arrivals
        self.window = window
        self._tail = tail
        self._flow = flow

    def tail_index(self):
        return self._tail

    def mean_flow(self):
        return self._flow


class TestThresholdSwitchPolicy:
    def _policy(self, **knobs):
        knobs.setdefault("cooldown", 1)
        knobs.setdefault("confirm", 2)
        knobs.setdefault("calm_confirm", 3)
        policy = ThresholdSwitchPolicy(DEFAULT_CANDIDATES, **knobs)
        policy.reset(num_machines=1)
        return policy

    def test_partition_roles(self):
        policy = self._policy()
        assert policy._calm == "greedy"
        assert policy._shed_light == "immediate-rejection"
        assert policy._shed_heavy == "rejection-flow"

    def test_escalates_after_confirm_streak(self):
        policy = self._policy()
        overload = _FakeMonitor(backlog=3)  # 3 jobs/machine > high_water 1.5
        assert policy.decide(overload, "greedy", 0) is None  # streak 1
        assert policy.decide(overload, "greedy", 1) == "immediate-rejection"

    def test_active_shedder_never_hops_down(self):
        # Backlog-high alone must not move a committed heavy shedder back to
        # the light one: the rejection budget concentrates where committed.
        policy = self._policy()
        overload = _FakeMonitor(backlog=3)
        for index in range(10):
            assert policy.decide(overload, "rejection-flow", index) is None

    def test_surge_promotes_to_heavy_shedder(self):
        policy = self._policy()
        surge = _FakeMonitor(backlog=10)  # > surge_factor 6 * high_water 1.5
        policy.decide(surge, "greedy", 0)
        assert policy.decide(surge, "greedy", 1) == "rejection-flow"

    def test_heavy_tail_trusted_only_on_full_window(self):
        policy = self._policy()
        early = _FakeMonitor(backlog=1, arrivals=10, window=64, tail=1.2)
        for index in range(6):
            assert policy.decide(early, "greedy", index) is None
        confirmed = _FakeMonitor(backlog=1, arrivals=64, window=64, tail=1.2)
        policy.decide(confirmed, "greedy", 10)
        assert policy.decide(confirmed, "greedy", 11) == "rejection-flow"

    def test_calm_requires_long_streak(self):
        policy = self._policy()
        calm = _FakeMonitor(backlog=0)
        assert policy.decide(calm, "rejection-flow", 0) is None
        assert policy.decide(calm, "rejection-flow", 1) is None
        assert policy.decide(calm, "rejection-flow", 2) == "greedy"

    def test_interrupted_streak_resets(self):
        policy = self._policy()
        calm = _FakeMonitor(backlog=0)
        band = _FakeMonitor(backlog=1)  # hysteresis band: no target
        policy.decide(calm, "rejection-flow", 0)
        policy.decide(calm, "rejection-flow", 1)
        assert policy.decide(band, "rejection-flow", 2) is None
        assert policy.decide(calm, "rejection-flow", 3) is None  # streak restarts

    def test_cooldown_blocks_confirmed_switch(self):
        policy = self._policy(cooldown=100)
        policy.record_switch(0, "greedy")
        overload = _FakeMonitor(backlog=3)
        for index in range(1, 10):
            assert policy.decide(overload, "greedy", index) is None

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ThresholdSwitchPolicy(())
        with pytest.raises(InvalidParameterError):
            ThresholdSwitchPolicy(DEFAULT_CANDIDATES, cooldown=0)
        with pytest.raises(InvalidParameterError):
            ThresholdSwitchPolicy(DEFAULT_CANDIDATES, high_water=0.5, low_water=1.0)
        with pytest.raises(InvalidParameterError):
            ThresholdSwitchPolicy(DEFAULT_CANDIDATES, surge_factor=0.5)
        with pytest.raises(InvalidParameterError):
            ThresholdSwitchPolicy(DEFAULT_CANDIDATES, confirm=0)
        with pytest.raises(InvalidParameterError):
            ThresholdSwitchPolicy(DEFAULT_CANDIDATES, confirm=4, calm_confirm=2)


class TestBanditSwitchPolicy:
    def test_explores_unplayed_candidates_in_order(self):
        policy = BanditSwitchPolicy(DEFAULT_CANDIDATES, cooldown=1)
        policy.reset(num_machines=1)
        first = policy.decide(_FakeMonitor(flow=5.0), "immediate-rejection", 0)
        assert first == "greedy"
        policy.record_switch(0, "greedy")
        second = policy.decide(_FakeMonitor(flow=2.0), "greedy", 1)
        assert second == "rejection-flow"

    def test_switches_only_past_margin(self):
        policy = BanditSwitchPolicy(("immediate-rejection", "greedy"), cooldown=1, margin=0.1)
        policy.reset(num_machines=1)
        # First charged sample seeds the active candidate's estimate.
        assert policy.decide(_FakeMonitor(flow=5.0), "immediate-rejection", 0) == "greedy"
        policy.record_switch(0, "greedy")
        # Greedy's estimate (1.0) is far better: no switch back...
        assert policy.decide(_FakeMonitor(flow=1.0), "greedy", 1) is None
        # ... until its EMA degrades past the other estimate's margin.
        target = None
        for index in range(2, 30):
            target = policy.decide(_FakeMonitor(flow=50.0), "greedy", index)
            if target is not None:
                break
        assert target == "immediate-rejection"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BanditSwitchPolicy(DEFAULT_CANDIDATES, margin=-0.1)
        with pytest.raises(InvalidParameterError):
            BanditSwitchPolicy(DEFAULT_CANDIDATES, ema=0.0)
        with pytest.raises(InvalidParameterError):
            make_switch_policy("annealing", DEFAULT_CANDIDATES)


# --------------------------------------------------------------------------------------
# The meta solver
# --------------------------------------------------------------------------------------


def _instance(n=80, machines=3, seed=7):
    generator = InstanceGenerator(
        num_machines=machines, seed=seed, size_distribution="pareto"
    )
    return generator.generate(n)


class TestMetaSolver:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            MetaSchedulingPolicy(candidates=())
        with pytest.raises(InvalidParameterError):
            MetaSchedulingPolicy(policy="annealing")
        with pytest.raises(InvalidParameterError):
            MetaSchedulingPolicy(window=1)
        with pytest.raises(InvalidParameterError):
            MetaSchedulingPolicy(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            MetaSchedulingPolicy(candidates=("meta",))  # not itself adaptive
        for bad in ("42", "x:greedy", "-1:greedy", "3:"):
            with pytest.raises(InvalidParameterError):
                MetaSchedulingPolicy(plan=(bad,))

    def test_later_plan_entry_wins_per_index(self):
        policy = MetaSchedulingPolicy(plan=("5:greedy", "5:rejection-flow"))
        assert policy._forced == {5: "rejection-flow"}

    def test_single_candidate_matches_fixed_policy(self):
        # With one candidate and the controller off, meta is a transparent
        # wrapper: epsilon must reach the sub-policy and the schedule must be
        # identical to the fixed run at that budget.
        instance = _instance()
        for epsilon in (0.25, 0.7):
            fixed = solve(instance, "immediate-rejection", epsilon=epsilon)
            meta = solve(
                instance, "meta",
                candidates=("immediate-rejection",), policy="plan", epsilon=epsilon,
            )
            assert meta.objective_value == fixed.objective_value
            assert meta.rejected_count == fixed.rejected_count
            assert meta.result.records == fixed.result.records

    def test_forced_plan_switch_recorded_in_extras(self):
        outcome = solve(
            _instance(), "meta", policy="plan", plan=("10:rejection-flow",),
        )
        assert outcome.extras["meta_switches"] == 1
        assert outcome.extras["meta_switch_trace"] == "10:rejection-flow"
        assert outcome.extras["meta_active"] == "rejection-flow"

    def test_batch_and_session_byte_identical_across_dispatch(self):
        instance = _instance(n=120)
        reference = solve(instance, "meta", epsilon=0.25)
        reference_row = canonical_json(reference.as_row())
        for dispatch in DISPATCH_MODES:
            batch = solve(instance, "meta", dispatch=dispatch, epsilon=0.25)
            assert canonical_json(batch.as_row()) == reference_row
            _assert_outcome_identical(batch, reference)
            with dispatch_mode(dispatch):
                session = open_session("meta", instance.machines, epsilon=0.25)
            session.submit_many(instance.jobs)
            streamed = session.finalize()
            assert canonical_json(streamed.as_row()) == reference_row
            _assert_outcome_identical(streamed, reference)


# --------------------------------------------------------------------------------------
# Hot switching
# --------------------------------------------------------------------------------------


class TestHotSwitch:
    def test_open_session_returns_meta_session(self):
        session = open_session("meta", 2)
        assert isinstance(session, MetaSchedulerSession)
        assert session.active_algorithm == DEFAULT_CANDIDATES[0]

    def test_hot_switch_validates_target(self):
        session = open_session("meta", 2)
        with pytest.raises(InvalidParameterError):
            session.hot_switch("no-such-algorithm")
        with pytest.raises(InvalidParameterError):
            session.hot_switch("meta")

    def test_hot_switch_after_finalize_rejected(self):
        session = open_session("meta", 2)
        session.finalize()
        with pytest.raises(SessionStateError):
            session.hot_switch("greedy")

    def test_stats_payload(self):
        session = open_session("meta", 2)
        session.submit_many(_instance(n=30, machines=2).jobs)
        session.poll()  # drain the stepper so arrivals reach the monitor
        stats = session.stats()
        assert stats["active_algorithm"] in DEFAULT_CANDIDATES
        assert stats["switches"] == len(session.switch_log)
        telemetry = stats["telemetry"]
        assert telemetry["arrivals"] > 0
        json.dumps(telemetry)

    def test_hot_switch_equals_uninterrupted_plan_all_modes(self):
        instance = _instance(n=100)
        cut = 40
        for dispatch in DISPATCH_MODES:
            with dispatch_mode(dispatch):
                live = open_session("meta", instance.machines)
                live.submit_many(instance.jobs[:cut])
                event = live.hot_switch("rejection-flow")
                live.submit_many(instance.jobs[cut:])
                plan = (f"{event.index}:rejection-flow",)
                cold = open_session("meta", instance.machines, plan=plan)
            assert live.dispatch == cold.dispatch == dispatch
            cold.submit_many(instance.jobs)
            _assert_outcome_identical(live.finalize(), cold.finalize())
            batch = solve(instance, "meta", dispatch=dispatch, plan=plan)
            assert batch.extras["meta_switch_trace"].endswith("rejection-flow")

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        instance=flow_instances(max_jobs=12),
        cut=st.integers(min_value=0, max_value=12),
        target=st.sampled_from(["greedy", "rejection-flow", "immediate-rejection"]),
    )
    def test_hot_switch_property(self, instance, cut, target):
        # Hot-switching mid-stream is indistinguishable from a session that
        # carried the same forced plan from the start — in every dispatch mode.
        cut = min(cut, len(instance.jobs))
        for dispatch in DISPATCH_MODES:
            with dispatch_mode(dispatch):
                live = open_session("meta", instance.machines)
                live.submit_many(instance.jobs[:cut])
                event = live.hot_switch(target)
                live.submit_many(instance.jobs[cut:])
                cold = open_session(
                    "meta", instance.machines, plan=(f"{event.index}:{target}",)
                )
            cold.submit_many(instance.jobs)
            _assert_outcome_identical(live.finalize(), cold.finalize())


# --------------------------------------------------------------------------------------
# E17 and the CLI
# --------------------------------------------------------------------------------------


class TestE17:
    def test_acceptance_at_default_config(self):
        # The headline claim (re-checked nightly): every meta policy stays
        # strictly under the worst fixed candidate on every drifting
        # scenario, and on at least one scenario some meta policy beats
        # every fixed candidate outright.
        result = run_experiment("E17")
        summary = result.raw["summary"]
        assert {entry["scenario"] for entry in summary} == set(result.raw["scenarios"])
        assert all(entry["beats_worst_fixed"] for entry in summary)
        assert any(entry["beats_all_fixed"] for entry in summary)

    def test_session_and_batch_ingest_agree(self):
        common = dict(
            scenarios=("drift-ramp-heavytail",), meta_policies=("threshold",),
            num_jobs=60,
        )
        session = run_experiment("E17", ingest="session", **common)
        batch = run_experiment("E17", ingest="batch", **common)
        assert canonical_json(session.raw["rows"]) == canonical_json(batch.raw["rows"])
        # No wall-clock column: the table is a function of the config.
        assert "events_per_s" not in session.tables[0].columns

    def test_raw_is_byte_reproducible(self):
        kwargs = dict(
            scenarios=("drift-diurnal-flash",), meta_policies=("bandit",), num_jobs=60
        )
        first = run_experiment("E17", **kwargs)
        second = run_experiment("E17", **kwargs)
        assert canonical_json(first.raw) == canonical_json(second.raw)

    def test_unknown_ingest_mode(self):
        with pytest.raises(ValueError):
            run_experiment("E17", ingest="osmosis", num_jobs=10)


class TestAdaptiveCli:
    def test_json_summary(self):
        out = io.StringIO()
        code = cli_main(
            [
                "adaptive", "--scenario", "drift-ramp-heavytail",
                "--policy", "threshold", "--jobs", "60", "--json",
            ],
            out=out,
        )
        assert code == 0
        summary = json.loads(out.getvalue())
        assert summary[0]["scenario"] == "drift-ramp-heavytail"
        assert {"beats_all_fixed", "beats_worst_fixed", "switches"} <= set(summary[0])

    def test_human_output_has_verdicts(self):
        out = io.StringIO()
        code = cli_main(
            [
                "adaptive", "--scenario", "drift-ramp-heavytail",
                "--policy", "threshold", "--jobs", "60",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "E17" in text
        assert "fixed policy" in text
