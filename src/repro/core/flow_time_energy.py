"""Theorem 2 algorithm: weighted flow-time plus energy with rejections.

Section 3 of the paper considers the speed-scaling model: running machine
``i`` at speed ``s`` costs power ``P(s) = s**alpha``, and the objective is the
total *weighted* flow time plus the total energy.  The algorithm:

* **Ordering.**  Pending jobs of a machine are ordered by non-increasing
  density ``delta_ij = w_j / p_ij`` (ties by release time).

* **Local scheduling and speed.**  When machine ``i`` becomes idle it starts
  the highest-density pending job at speed
  ``gamma * (sum of the weights of the pending jobs)**(1/alpha)``; the speed
  stays constant for the whole (non-preemptive) execution.

* **Rejection.**  A counter ``v_k`` is attached to the running job ``k``;
  every job dispatched to the machine during ``k``'s execution adds its
  *weight* to ``v_k``.  The first time ``v_k > w_k / epsilon`` the running job
  is interrupted and rejected.  The total rejected weight is therefore at most
  an ``epsilon`` fraction of the total weight.  The counter is a per-machine
  ``(running job id, v_k)`` pair, set when the job starts.

* **Dispatching.**  A new job ``j`` is sent to the machine minimising

  .. math::

      \\lambda_{ij} = w_j\\Big(\\frac{p_{ij}}{\\epsilon}
            + \\sum_{\\ell \\preceq j} \\frac{p_{i\\ell}}{\\gamma W_\\ell^{1/\\alpha}}\\Big)
            + \\Big(\\sum_{\\ell \\succ j} w_\\ell\\Big)
              \\frac{p_{ij}}{\\gamma W_j^{1/\\alpha}}

  where ``W_\\ell`` is the total weight of the pending jobs that do not
  precede ``\\ell`` (the jobs that will still be pending when ``\\ell``
  starts, i.e. the suffix of the density order including ``\\ell`` itself),
  matching the speeds the scheduling policy will actually use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import energy_flow_gamma
from repro.core.ordering import density_key
from repro.core.rejection import check_epsilon
from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance
from repro.simulation.job import Job
from repro.simulation.decisions import ArrivalDecision, Rejection, StartDecision
from repro.simulation.speed_engine import SpeedScalingPolicy
from repro.simulation.state import EngineState
from repro.utils.numeric import EPS


@dataclass(frozen=True, slots=True)
class WeightedRejectionEvent:
    """A weighted-rule rejection and the data the dual accounting needs."""

    machine: int
    time: float
    job_id: int
    remaining_time: float


class RejectionEnergyFlowScheduler(SpeedScalingPolicy):
    """The Section 3 online algorithm (Theorem 2).

    Parameters
    ----------
    epsilon:
        Rejection parameter; the algorithm rejects at most an ``epsilon``
        fraction of the total job weight.
    gamma:
        Speed-scaling constant.  ``None`` uses the value chosen in the
        paper's proof (see :func:`repro.core.bounds.energy_flow_gamma`).
    enable_rejection:
        Ablation switch; with ``False`` the algorithm never rejects (used to
        demonstrate why the rejection rule is needed).
    """

    def __init__(
        self,
        epsilon: float,
        gamma: float | None = None,
        enable_rejection: bool = True,
    ) -> None:
        self.epsilon = check_epsilon(epsilon)
        self._gamma_override = gamma
        self.enable_rejection = enable_rejection
        self.name = f"rejection-flow+energy(eps={epsilon:g})"
        self.reset_state()

    # -- lifecycle -----------------------------------------------------------------

    def reset_state(self) -> None:
        """Clear all per-run bookkeeping."""
        self._instance: Instance | None = None
        self.alpha: float = 3.0
        self.gamma: float = 1.0
        #: Weighted rule: ``machine -> (running job id, weight dispatched
        #: to the machine since that job started)``.
        self._weighted: dict[int, tuple[int, float]] = {}
        self.lambdas: dict[int, float] = {}
        self.rejection_events: list[WeightedRejectionEvent] = []

    def reset(self, instance: Instance) -> None:
        """Engine hook: prepare for a fresh simulation of ``instance``."""
        alphas = {m.alpha for m in instance.machines}
        if len(alphas) != 1:
            raise InvalidParameterError(
                "the Theorem 2 algorithm assumes a common power exponent alpha; "
                f"got {sorted(alphas)}"
            )
        self.reset_state()
        self._instance = instance
        self.alpha = float(next(iter(alphas)))
        if self.alpha <= 1:
            raise InvalidParameterError(
                f"the speed-scaling model requires alpha > 1, got {self.alpha}"
            )
        self.gamma = (
            self._gamma_override
            if self._gamma_override is not None
            else energy_flow_gamma(self.epsilon, self.alpha)
        )
        if not (self.gamma > 0):
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma}")

    # -- dispatching ---------------------------------------------------------------

    def lambda_ij(self, job: Job, machine: int, state: EngineState) -> float:
        """The marginal-increase surrogate ``lambda_ij`` of Section 3."""
        p_ij = job.size_on(machine)
        pending = state.pending_jobs(machine)
        merged = sorted(pending + [job], key=lambda other: density_key(other, machine))

        # Suffix weights: W_l = total weight of l and every job after it in
        # the density order (the jobs that will still be pending when l starts).
        suffix = [0.0] * (len(merged) + 1)
        for idx in range(len(merged) - 1, -1, -1):
            suffix[idx] = suffix[idx + 1] + merged[idx].weight

        waiting = 0.0
        succeeding_weight = 0.0
        w_j_suffix = None
        job_key = density_key(job, machine)
        for idx, other in enumerate(merged):
            if other.id == job.id:
                w_j_suffix = suffix[idx]
                waiting += other.size_on(machine) / (self.gamma * suffix[idx] ** (1.0 / self.alpha))
                continue
            if density_key(other, machine) <= job_key:
                waiting += other.size_on(machine) / (self.gamma * suffix[idx] ** (1.0 / self.alpha))
            else:
                succeeding_weight += other.weight
        assert w_j_suffix is not None
        own_duration = p_ij / (self.gamma * w_j_suffix ** (1.0 / self.alpha))
        return job.weight * (p_ij / self.epsilon + waiting) + succeeding_weight * own_duration

    def on_arrival(self, t: float, job: Job, state: EngineState) -> ArrivalDecision:
        """Dispatch ``job`` to the machine minimising ``lambda_ij``; apply the weighted rule."""
        best_machine: int | None = None
        best_lambda = float("inf")
        for machine in job.eligible_machines():
            lam = self.lambda_ij(job, machine, state)
            if lam < best_lambda:
                best_machine, best_lambda = machine, lam
        if best_machine is None:
            raise InvalidParameterError(f"job {job.id} cannot run on any machine")

        self.lambdas[job.id] = (self.epsilon / (1.0 + self.epsilon)) * best_lambda

        rejections: list[Rejection] = []
        running = state.running(best_machine)
        if self.enable_rejection and running is not None:
            running_job = running.job
            tracked = self._weighted.get(best_machine)
            if tracked is not None and tracked[0] == running_job.id:
                # The arriving job is dispatched during the running job's
                # execution: its weight adds to ``v_k``, which the rule
                # compares with ``w_k / epsilon`` (strictly, as the paper).
                dispatched = tracked[1] + job.weight
                if dispatched > running_job.weight / self.epsilon + EPS:
                    rejections.append(Rejection(running_job.id, reason="weighted-rule"))
                    self.rejection_events.append(
                        WeightedRejectionEvent(
                            machine=best_machine,
                            time=t,
                            job_id=running_job.id,
                            remaining_time=running.remaining_time(t),
                        )
                    )
                    del self._weighted[best_machine]
                else:
                    self._weighted[best_machine] = (running_job.id, dispatched)

        return ArrivalDecision.dispatch(best_machine, rejections)

    # -- local scheduling ----------------------------------------------------------

    def priority_key(self, job: Job, machine: int) -> tuple[float, float, int]:
        """Static highest-density-first local order for the indexed engine."""
        return density_key(job, machine)

    def select_next(self, t: float, machine: int, state: EngineState) -> StartDecision | None:
        """Start the highest-density pending job at speed ``gamma * (total weight)^(1/alpha)``.

        The argmin comes from the indexed pending state; the weight total —
        which feeds the chosen speed — is still summed over the pending set
        in dispatch order, so the float result matches the scan path exactly.
        It is added left to right: Python 3.12's compensated ``sum`` would
        give other bits, and so other speeds, than 3.10 and 3.11.
        """
        chosen = state.pending_argmin(machine, self.priority_key)
        if chosen is None:
            return None
        jobs = state.jobs_by_id
        total_weight = 0
        for job_id in state.machine_pending(machine):
            total_weight += jobs[job_id].weight
        speed = self.gamma * total_weight ** (1.0 / self.alpha)
        if self.enable_rejection:
            self._weighted[machine] = (chosen.id, 0.0)
        return StartDecision(job_id=chosen.id, speed=speed)

    # -- reporting -----------------------------------------------------------------

    def diagnostics(self) -> dict:
        """Per-run diagnostics for experiment reports.

        The rejection counts have the keys of
        :meth:`~repro.core.flow_time.RejectionFlowTimeScheduler.diagnostics`;
        only the weighted rule fires here.  ``lambda_sum`` adds left to
        right: Python 3.12's compensated ``sum`` would give other bits than
        3.10 and 3.11.
        """
        lambda_sum = 0
        for value in self.lambdas.values():
            lambda_sum += value
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "lambda_sum": lambda_sum,
            "rule1_rejections": 0,
            "rule2_rejections": 0,
            "weighted_rejections": len(self.rejection_events),
        }
