"""Streaming session wrapper for the adaptive meta-scheduler.

A :class:`MetaSchedulerSession` is a :class:`~repro.service.session.SchedulerSession`
running the ``meta`` solver, with three additions:

* :meth:`~MetaSchedulerSession.hot_switch` — force a live algorithm switch
  *now* (before the next processed arrival) via the existing
  snapshot/restore op-log replay: the switch is committed into the session's
  ``plan`` parameter and the session rebuilds itself in place by replaying
  its own op log under the extended plan.  Because controller switches
  re-derive deterministically on replay, the snapshot only needs to carry
  the forced entries — and a session restored from a client's snapshot on
  any server reproduces the hot switch exactly, so ``finalize()`` stays
  byte-identical to an uninterrupted run of the same switch schedule;
* :meth:`~MetaSchedulerSession.telemetry` — the live
  :class:`~repro.adaptive.monitor.TelemetrySnapshot` of the policy's load
  monitor;
* an extended :meth:`~MetaSchedulerSession.stats` payload (switch count,
  active algorithm, telemetry) surfaced through the service wire protocol's
  ``stats`` op.

:func:`repro.open_session` and :meth:`SchedulerSession.restore` return this
class automatically for solvers tagged ``"adaptive"``.
"""

from __future__ import annotations

from repro.adaptive.solver import MetaSchedulingPolicy, SwitchEvent, _validate_sub
from repro.service.session import SchedulerSession

__all__ = ["MetaSchedulerSession"]


class MetaSchedulerSession(SchedulerSession):
    """A streaming session over the ``meta`` solver with live switching."""

    #: The policy built for an adaptive solver (typed for introspection).
    policy: MetaSchedulingPolicy

    # -- live switching ------------------------------------------------------------

    def hot_switch(self, algorithm: str) -> SwitchEvent:
        """Switch the active sub-policy to ``algorithm`` before the next arrival.

        Implemented as *commit-then-replay*: the switch is appended to the
        ``plan`` parameter (keyed by the processed-arrival index, which is
        replay-stable across dispatch modes), the session snapshots itself,
        and rebuilds in place by replaying the op log under the extended
        plan.  The rebuilt session has processed exactly the same events —
        plus the committed switch armed for the next arrival — so all later
        behaviour is identical to a session configured with that plan from
        the start (the hot-switch property test asserts byte-identical
        ``finalize()`` artifacts).

        Returns the committed :class:`~repro.adaptive.solver.SwitchEvent`
        (its ``time`` is the switch's *commit* watermark; the arrival that
        realises it carries the simulation timestamp).
        """
        self._require_open("hot_switch")
        _validate_sub(algorithm)
        index = self.policy.arrivals_processed
        snapshot = self.snapshot()
        plan = list(snapshot["params"].get("plan") or ())
        plan.append(f"{index}:{algorithm}")
        snapshot["params"]["plan"] = plan
        replacement = type(self).restore(snapshot)
        # Become the replacement in place so the caller's (and the service
        # manager's) reference stays valid; the stepper's observer appends to
        # the event buffer this object now holds.
        self.__dict__.clear()
        self.__dict__.update(replacement.__dict__)
        # The committed switch arms for arrival ``index``, which the replay
        # has not processed yet — so the replayed policy's active algorithm
        # is still the one being switched away from.
        return SwitchEvent(
            index=index,
            time=self._watermark,
            previous=self.policy.active_algorithm,
            algorithm=algorithm,
            source="plan",
        )

    # -- observability -------------------------------------------------------------

    @property
    def switch_log(self) -> tuple[SwitchEvent, ...]:
        """Every switch realised so far (controller and forced)."""
        return tuple(self.policy.switch_log)

    @property
    def active_algorithm(self) -> str:
        """Registry id of the currently active sub-policy."""
        return self.policy.active_algorithm

    def telemetry(self):
        """Live :class:`~repro.adaptive.monitor.TelemetrySnapshot`."""
        return self.policy.monitor.snapshot()

    def stats(self) -> dict:
        """Base session stats plus switching state and load telemetry."""
        stats = super().stats()
        stats["active_algorithm"] = self.policy.active_algorithm
        stats["switches"] = len(self.policy.switch_log)
        stats["telemetry"] = self.telemetry().as_dict()
        return stats
