"""Rejection rules of the paper: parameter checks, the Section 3 counter and the log.

Section 2 uses two rules:

* **Rule 1** — when a job ``j`` starts executing on machine ``i`` a counter
  ``v_j`` is created at zero; every time another job is dispatched to ``i``
  during ``j``'s execution the counter increases by one.  The first time
  ``v_j`` reaches ``1/epsilon``, job ``j`` (the *running* job) is interrupted
  and rejected.

* **Rule 2** — each machine has a counter ``c_i`` starting at zero; every
  dispatch to ``i`` increases it by one.  The first time ``c_i`` reaches
  ``1 + 1/epsilon`` the pending job with the largest processing time on ``i``
  (excluding the running job) is rejected and ``c_i`` resets to zero.

Both are plain per-machine integers inside
:class:`~repro.core.flow_time.RejectionFlowTimeScheduler`: Rule 1 a
``(running job id, count)`` pair and Rule 2 a count, against thresholds the
scheduler computes once per run.

Section 3 replaces Rule 1 with a *weighted* rule
(:class:`WeightedRunningJobCounter`): ``v_j`` increases by the weight of the
dispatched job and ``j`` is rejected the first time ``v_j > w_j / epsilon``.

Because ``1/epsilon`` is generally not an integer while the counters are, the
"first time the counter equals the threshold" is implemented as "the first
time the counter is at least the threshold"; see
:func:`repro.utils.numeric.integer_threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import InvalidParameterError
from repro.utils.numeric import EPS


def check_epsilon(epsilon: float) -> float:
    """Validate the rejection parameter ``0 < epsilon < 1`` (paper's assumption).

    Values ``>= 1`` are accepted with a permissive interpretation (the rules
    simply fire more often), but non-positive values are rejected because the
    thresholds ``1/epsilon`` would be meaningless.
    """
    if not (epsilon > 0):
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    return float(epsilon)


@dataclass
class WeightedRunningJobCounter:
    """Section 3 weighted rejection counter for the running job.

    ``v_j`` accumulates the *weight* of every job dispatched to the machine
    during ``j``'s execution; the rule fires the first time
    ``v_j > w_j / epsilon`` (strict inequality, as in the paper).
    """

    epsilon: float
    job_weight: float
    accumulated: float = 0.0

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        if not (self.job_weight > 0):
            raise InvalidParameterError(
                f"job weight must be positive, got {self.job_weight}"
            )
        self.threshold = self.job_weight / self.epsilon

    def record_dispatch(self, weight: float) -> bool:
        """Register a dispatch of the given weight; ``True`` when the rule fires."""
        if weight < 0:
            raise InvalidParameterError(f"dispatch weight must be non-negative, got {weight}")
        self.accumulated += weight
        return self.accumulated > self.threshold + EPS

    @property
    def fired(self) -> bool:
        """``True`` once the accumulated weight exceeds the threshold."""
        return self.accumulated > self.threshold + EPS


@dataclass
class RejectionLog:
    """Bookkeeping of which rule rejected which job (used by ablations and E9)."""

    rule1: list[int] = field(default_factory=list)
    rule2: list[int] = field(default_factory=list)
    weighted: list[int] = field(default_factory=list)

    def total(self) -> int:
        """Total number of logged rejections."""
        return len(self.rule1) + len(self.rule2) + len(self.weighted)

    def as_dict(self) -> dict:
        """Plain-dict summary for result extras."""
        return {
            "rule1_rejections": len(self.rule1),
            "rule2_rejections": len(self.rule2),
            "weighted_rejections": len(self.weighted),
        }
