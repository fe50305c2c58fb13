"""Theorem 1 algorithm: total flow-time minimisation with rejections.

The scheduler follows Section 2 of the paper exactly:

* **Dispatching.**  When job ``j`` arrives at time ``r_j`` it is immediately
  dispatched to the machine minimising

  .. math::

      \\lambda_{ij} = \\tfrac{1}{\\epsilon} p_{ij}
                      + \\sum_{\\ell \\preceq j} p_{i\\ell}
                      + \\sum_{\\ell \\succ j} p_{ij}

  where ``\\ell`` ranges over the *pending* jobs of machine ``i`` (excluding
  the one currently running) and ``\\preceq`` is the shortest-processing-time
  order on machine ``i`` (ties by release time).  The dual variable
  ``\\lambda_j = \\tfrac{\\epsilon}{1+\\epsilon}\\min_i \\lambda_{ij}`` is
  recorded for the dual-fitting verification (Lemma 4 / experiment E7).

* **Local scheduling.**  Whenever a machine becomes idle it starts the
  pending job that precedes all others in the SPT order.

* **Rejection Rule 1.**  The running job ``k`` of machine ``i`` is rejected
  the first time ``ceil(1/epsilon)`` jobs have been dispatched to ``i``
  during its execution.

* **Rejection Rule 2.**  Every ``ceil(1 + 1/epsilon)`` dispatches to machine
  ``i`` (counted by ``c_i``), the pending job with the largest processing
  time on ``i`` is rejected and ``c_i`` resets.

Both rules can be disabled individually (``enable_rule1`` / ``enable_rule2``)
for the ablation experiment E9; with both disabled the scheduler degenerates
into the rejection-free greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.core.ordering import spt_key
from repro.core.rejection import check_epsilon
from repro.exceptions import InvalidParameterError
from repro.simulation.decisions import ArrivalDecision, Rejection
from repro.simulation.engine import FlowTimePolicy
from repro.simulation.instance import Instance
from repro.simulation.job import Job, trusted_builder
from repro.simulation.state import EngineState
from repro.utils.numeric import integer_threshold


@dataclass(frozen=True, slots=True)
class Rule1Event:
    """A Rule-1 rejection: which machine, when, and the remaining work discarded."""

    machine: int
    time: float
    job_id: int
    remaining_work: float


@dataclass(frozen=True, slots=True)
class Rule2Event:
    """A Rule-2 rejection and the definitive-finish adjustment of the paper."""

    machine: int
    time: float
    job_id: int
    adjustment: float


_rejection = trusted_builder(Rejection)
_rule1_event = trusted_builder(Rule1Event)
_rule2_event = trusted_builder(Rule2Event)


class RejectionFlowTimeScheduler(FlowTimePolicy):
    """The Section 2 online algorithm (Theorem 1).

    Parameters
    ----------
    epsilon:
        Rejection parameter in ``(0, 1)``; the algorithm rejects at most a
        ``2 * epsilon`` fraction of the jobs and is
        ``2((1+epsilon)/epsilon)^2``-competitive.
    enable_rule1, enable_rule2:
        Ablation switches; the paper's algorithm uses both.
    """

    def __init__(
        self,
        epsilon: float,
        enable_rule1: bool = True,
        enable_rule2: bool = True,
    ) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.enable_rule1 = enable_rule1
        self.enable_rule2 = enable_rule2
        rules = []
        if enable_rule1:
            rules.append("r1")
        if enable_rule2:
            rules.append("r2")
        suffix = "+".join(rules) if rules else "none"
        self.name = f"rejection-flow-time(eps={epsilon:g},{suffix})"
        self.reset_state()

    #: The engine maintains Fenwick order statistics over the SPT order so
    #: ``lambda_ij`` is O(log n) instead of O(queue length) per machine.
    wants_prefix_stats = True

    # -- lifecycle -----------------------------------------------------------------

    def reset_state(self) -> None:
        """Clear all per-run bookkeeping."""
        self._instance: Instance | None = None
        # Rule 1 fires on the ceil(1/eps)-th dispatch during a job's run,
        # Rule 2 on every ceil(1 + 1/eps)-th dispatch to a machine.
        self._rule1_threshold = integer_threshold(1.0 / self.epsilon)
        self._rule2_threshold = integer_threshold(1.0 + 1.0 / self.epsilon)
        #: Rule 1: ``machine -> (running job id, dispatches since it started)``.
        self._rule1: dict[int, tuple[int, int]] = {}
        #: Rule 2: dispatches to each machine since its last eviction.
        self._rule2: list[int] = []
        #: The decision of an arrival no rule fires on, per machine; it is
        #: frozen, so every such arrival shares it.
        self._plain_dispatch: list[ArrivalDecision] = []
        #: Per-machine lazy max-heaps over dispatched jobs, keyed so the heap
        #: head is the Rule-2 victim (largest processing time, ties by
        #: earliest release then larger id — the order the reference ``max``
        #: over ``(size, -release, id)`` realised).  Entries go stale when a
        #: job starts or is rejected and are skipped against the live pending
        #: set.  Only maintained while Rule 2 is enabled.
        self._victims: list[list[tuple[tuple[float, float, int], Job]]] = []
        self.lambdas: dict[int, float] = {}
        self.rule1_events: list[Rule1Event] = []
        self.rule2_events: list[Rule2Event] = []

    def reset(self, instance: Instance) -> None:
        """Engine hook: prepare for a fresh simulation of ``instance``."""
        self.reset_state()
        self._instance = instance
        self._rule2 = [0] * instance.num_machines
        self._plain_dispatch = [ArrivalDecision.dispatch(i) for i in range(instance.num_machines)]
        self._victims = [[] for _ in range(instance.num_machines)]

    # -- dispatching ---------------------------------------------------------------

    def lambda_ij(self, job: Job, machine: int, state: EngineState) -> float:
        """The marginal-increase surrogate ``lambda_ij`` of the paper.

        The waiting sum and the succeeding count come from the engine's
        indexed pending state (scan for short queues, Fenwick prefix query
        past the cutoff — see
        :meth:`~repro.simulation.state.EngineState.pending_spt_stats`);
        on a detached :class:`EngineState` (unit tests, custom tooling) the
        scan branch reproduces the reference formulation bit-for-bit.
        """
        p_ij = job.size_on(machine)
        waiting, succeeding = state.pending_spt_stats(machine, job)
        return (p_ij / self.epsilon) + (waiting + p_ij) + succeeding * p_ij

    def on_arrival(self, t: float, job: Job, state: EngineState) -> ArrivalDecision:
        """Dispatch ``job`` to the machine minimising ``lambda_ij`` and apply the rules."""
        fused_argmin = getattr(state, "spt_lambda_argmin", None)
        if fused_argmin is not None:
            # Fused dispatch state (``indexed``): one sweep computes the
            # same per-machine lambdas in the same float order and the same
            # strict-< tie-break as the loop below.
            best_machine, best_lambda = fused_argmin(job, self.epsilon)
        else:
            best_machine = None
            best_lambda = float("inf")
            inf = float("inf")
            for machine, p_ij in enumerate(job.sizes):
                if p_ij == inf:
                    continue
                lam = self.lambda_ij(job, machine, state)
                if lam < best_lambda:
                    best_machine, best_lambda = machine, lam
        if best_machine is None:
            raise InvalidParameterError(f"job {job.id} cannot run on any machine")

        self.lambdas[job.id] = (self.epsilon / (1.0 + self.epsilon)) * best_lambda

        rejections: tuple[Rejection, ...] = ()

        # Rule 1: the arriving job is one more dispatch during the execution of
        # the running job of the chosen machine.
        running = state.machines[best_machine].running
        if self.enable_rule1 and running is not None:
            running_id = running.job.id
            tracked = self._rule1.get(best_machine)
            if tracked is not None and tracked[0] == running_id:
                count = tracked[1] + 1
                if count >= self._rule1_threshold:
                    rejections = (_rejection(running_id, "rule1"),)
                    self.rule1_events.append(
                        _rule1_event(best_machine, t, running_id, running.remaining_work(t))
                    )
                    del self._rule1[best_machine]
                else:
                    self._rule1[best_machine] = (running_id, count)

        # Rule 2: one more dispatch to the chosen machine; on firing, evict the
        # pending job (including the one arriving right now) with the largest
        # processing time on that machine.
        if self.enable_rule2:
            count = self._rule2[best_machine] + 1
            push_arriving = True
            if count < self._rule2_threshold:
                self._rule2[best_machine] = count
            else:
                self._rule2[best_machine] = 0
                victim = self._rule2_victim(job, best_machine, state)
                # The arriving job is evicted before ever becoming pending;
                # keep it out of the victim heap.
                push_arriving = victim.id != job.id
                adjustment = self._rule2_adjustment(t, job, victim, best_machine, state)
                rejections += (_rejection(victim.id, "rule2"),)
                self.rule2_events.append(_rule2_event(best_machine, t, victim.id, adjustment))
            if push_arriving:
                key = (-job.sizes[best_machine], job.release, -job.id)  # ``_victim_key``
                heappush(self._victims[best_machine], (key, job))

        if not rejections:
            return self._plain_dispatch[best_machine]
        return ArrivalDecision.dispatch(best_machine, rejections)

    @staticmethod
    def _victim_key(job: Job, machine: int) -> tuple[float, float, int]:
        """Min-heap key whose minimum is the Rule-2 victim.

        Rule 2 evicts the pending job maximising
        ``(size on machine, -release, id)``; negating every component turns
        that maximum into a heap minimum, and the id component keeps keys
        unique.
        """
        return (-job.size_on(machine), job.release, -job.id)

    def _rule2_victim(self, arriving: Job, machine: int, state: EngineState) -> Job:
        """The pending-or-arriving job Rule 2 evicts on ``machine``.

        The per-machine heap contains every job ever dispatched to the
        machine; entries whose job already started or was rejected are stale
        and skipped against the live pending set (Rule-1 victims are running,
        hence not pending, hence skipped automatically).  The arriving job is
        not in the heap yet and is compared against the head directly.
        """
        heap = self._victims[machine]
        pending = state.machine_pending(machine)
        while heap and heap[0][1].id not in pending:
            heappop(heap)
        arriving_key = self._victim_key(arriving, machine)
        if not heap or arriving_key < heap[0][0]:
            return arriving
        return heap[0][1]

    def _rule2_adjustment(
        self, t: float, arriving: Job, victim: Job, machine: int, state: EngineState
    ) -> float:
        """Definitive-finish adjustment of a Rule-2 rejected job (Section 2).

        The paper extends the completion time of a job rejected by Rule 2 by
        ``q_ik(r_jj) + sum_{l != jj} p_il + p_ij`` — the remaining work of the
        running job, the processing times of the other pending jobs and the
        rejected job's own processing time — so that the dual variables keep
        accounting for it until that later time.
        """
        running = state.running(machine)
        remaining = running.remaining_work(t) if running is not None else 0.0
        if state.engine_attached:
            # Engine-maintained O(1) running total; the arriving job is not
            # pending yet, so no exclusion is needed.
            pending_total = state.pending_size_sum(machine)
        else:
            # Left to right, as 3.10 and 3.11 ``sum`` adds (3.12 compensates).
            pending_total = 0
            for other in state.pending_jobs(machine):
                if other.id != arriving.id:
                    pending_total += other.size_on(machine)
        return remaining + pending_total + victim.size_on(machine)

    # -- local scheduling ----------------------------------------------------------

    def priority_key(self, job: Job, machine: int) -> tuple[float, float, int]:
        """Static SPT local order — lets the engine index the pending sets."""
        return spt_key(job, machine)

    def select_next(self, t: float, machine: int, state: EngineState) -> int | None:
        """Start the pending job that precedes all others in the SPT order."""
        chosen = state.pending_argmin(machine, self.priority_key)
        if chosen is None:
            return None
        if self.enable_rule1:
            self._rule1[machine] = (chosen.id, 0)
        return chosen.id

    # -- reporting -----------------------------------------------------------------

    def diagnostics(self) -> dict:
        """Per-run diagnostics merged into the simulation result's extras.

        Each rejection is recorded once, as a rule event; the
        ``*_rejections`` keys count them under the names the Theorem 2
        scheduler shares (no weighted rule runs here).  ``lambda_sum`` adds
        left to right: Python 3.12's compensated ``sum`` would give other
        bits than 3.10 and 3.11.
        """
        lambda_sum = 0
        for value in self.lambdas.values():
            lambda_sum += value
        return {
            "lambda_sum": lambda_sum,
            "rule1_rejections": len(self.rule1_events),
            "rule2_rejections": len(self.rule2_events),
            "weighted_rejections": 0,
            "rule1_events": len(self.rule1_events),
            "rule2_events": len(self.rule2_events),
        }
