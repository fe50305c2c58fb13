"""A finished run is freed by reference counting alone.

A reference cycle through a run's engine state (say, a callable stored on
the state that refers back to it) keeps the state, its policy, its instance
and every record of the run alive until the cyclic collector's next full
pass, which a long benchmark or a long-running server only reaches now and
then.  Every case below runs once as a warm-up, then again with collection
off, and asserts that ``gc.collect()`` finds nothing unreachable afterwards:

* ``repro.solve`` with the outcome dropped, for every fixed-speed and
  speed-scaling algorithm of the registry;
* a :class:`SchedulerSession` submit/poll/finalize, for every streaming one;
* a :class:`SessionManager` create/submit/poll/close, for the same ones.

Each case runs in both dispatch modes, picked through ``REPRO_DISPATCH`` as
a process picks them.  The instance's queues pass ``PREFIX_SCAN_CUTOFF``, so
the policies that opt into the Fenwick prefix stats build them.
"""

from __future__ import annotations

import gc

import pytest

import repro
from repro.baselines.greedy import GreedyDispatchScheduler
from repro.core.flow_time import RejectionFlowTimeScheduler
from repro.service.manager import SessionManager
from repro.service.session import open_session
from repro.simulation.engine import DISPATCH_ENV_VAR, DISPATCH_MODES, FlowTimeEngine
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.solvers.registry import get_solver, list_algorithms

ENGINE_ALGORITHMS = sorted(
    row["algorithm"]
    for row in list_algorithms()
    if row["model"] in ("fixed-speed", "speed-scaling")
)
STREAMING_ALGORITHMS = [a for a in ENGINE_ALGORITHMS if get_solver(a).supports_streaming]

#: Two machines, 300 jobs arriving far faster than they run.
JOBS = tuple(Job(i, 0.01 * i, (40.0 + i % 7, 45.0 + i % 5)) for i in range(300))
INSTANCE = Instance.build(2, JOBS, name="deep-queues")


def _garbage_after(run) -> int:
    """Unreachable objects ``gc.collect()`` finds after a second ``run()``."""
    run()  # warm-up: lazy imports and per-class caches
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", [RejectionFlowTimeScheduler(0.5), GreedyDispatchScheduler("spt")])
def test_instance_queues_pass_the_prefix_cutoff(policy):
    # The prefix stats are built only once a queue is longer than
    # PREFIX_SCAN_CUTOFF.
    stepper = FlowTimeEngine(INSTANCE).stepper(policy)
    stepper.offer_many(JOBS)
    stepper.drain()
    assert stepper.state.prefix_stats is not None


@pytest.mark.parametrize("mode", DISPATCH_MODES)
@pytest.mark.parametrize("algorithm", ENGINE_ALGORITHMS)
def test_solve_leaves_no_garbage(algorithm, mode, monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV_VAR, mode)
    assert _garbage_after(lambda: repro.solve(INSTANCE, algorithm)) == 0


@pytest.mark.parametrize("mode", DISPATCH_MODES)
@pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS)
def test_finalized_session_leaves_no_garbage(algorithm, mode, monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV_VAR, mode)

    def run():
        session = open_session(algorithm, INSTANCE.machines)
        for start in range(0, len(JOBS), 16):
            session.submit_many(JOBS[start:start + 16])
            session.poll()
        session.finalize()

    assert _garbage_after(run) == 0


@pytest.mark.parametrize("mode", DISPATCH_MODES)
@pytest.mark.parametrize("algorithm", STREAMING_ALGORITHMS)
def test_closed_hosted_session_leaves_no_garbage(algorithm, mode, monkeypatch):
    monkeypatch.setenv(DISPATCH_ENV_VAR, mode)

    def run():
        manager = SessionManager(defaults={"algorithm": algorithm, "machines": 2})
        manager.create("tenant")
        for start in range(0, len(JOBS), 16):
            manager.submit("tenant", JOBS[start:start + 16])
            manager.poll("tenant")
        manager.close("tenant")

    assert _garbage_after(run) == 0
