"""Rejection rules of the paper and the check of their parameter.

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

Section 3 replaces Rule 1 with a *weighted* rule: ``v_k`` increases by the
weight of the dispatched job and the running job ``k`` is rejected the first
time ``v_k > w_k / epsilon``.  It is a per-machine ``(running job id, weight
dispatched since it started)`` pair inside
:class:`~repro.core.flow_time_energy.RejectionEnergyFlowScheduler`, compared
with ``w_k / epsilon + EPS``.

Because ``1/epsilon`` is generally not an integer while the counters are, the
"first time the counter equals the threshold" is implemented as "the first
time the counter is at least the threshold"; see
:func:`repro.utils.numeric.integer_threshold`.

Each rule's rejections are recorded once, as the scheduler's event lists
(``rule1_events``, ``rule2_events``, ``rejection_events``) that the dual
accountants read; ``diagnostics()`` counts them.
"""

from __future__ import annotations

from repro.exceptions import InvalidParameterError


def check_epsilon(epsilon: float) -> float:
    """Validate the rejection parameter ``0 < epsilon < 1`` (paper's assumption).

    Values ``>= 1`` are accepted with a permissive interpretation (the rules
    simply fire more often), but non-positive values are rejected because the
    thresholds ``1/epsilon`` would be meaningless.
    """
    if not (epsilon > 0):
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    return float(epsilon)
