"""Combinatorial lower bounds on the optimal total flow time.

All bounds here hold for *every* schedule of *all* jobs (the adversary in the
rejection model must complete every job), on unrelated machines, without
preemption — and in fact even with preemption and migration, which makes them
safe to use as competitive-ratio denominators.  Every total adds left to
right: Python 3.12's compensated ``sum`` gives other bits than 3.10 and 3.11.
"""

from __future__ import annotations

from repro.simulation.instance import Instance


def total_processing_lower_bound(instance: Instance) -> float:
    """``sum_j min_i p_ij`` — every job's flow time is at least its best processing time."""
    total = 0
    for job in instance.jobs:
        total += job.min_size()
    return total


def busy_interval_lower_bound(instance: Instance) -> float:
    """Queueing bound from simultaneous releases.

    For any set of jobs released at the same time, even the most powerful
    schedule must process them somewhere; with ``m`` machines and the jobs'
    *best* processing times ``q_(1) <= q_(2) <= ...`` (sorted), the ``k``-th
    completed among them finishes at least ``ceil(k/m)``-th "round" late:

    ``OPT >= sum_k q_(ceil(k/m))``-ish.  We use the safe, simple form: group
    the sorted best sizes into batches of ``m``; the ``b``-th batch waits for
    at least the total size of the smallest job of every earlier batch.  This
    is deliberately conservative (a certified bound), and is only strong for
    bursty instances — which is exactly when ``sum min p`` is weak.
    """
    m = instance.num_machines
    by_release: dict[float, list[float]] = {}
    for job in instance.jobs:
        by_release.setdefault(job.release, []).append(job.min_size())

    total = 0.0
    for sizes in by_release.values():
        sizes.sort()
        # Jobs in batch b (0-based) each wait for at least the smallest job of
        # every earlier batch (some machine must run two of them back to back).
        wait = 0.0
        for b in range(0, len(sizes), m):
            batch = sizes[b : b + m]
            batch_total = 0
            for size in batch:
                batch_total += size
            total += batch_total + wait * len(batch)
            wait += batch[0]
    return total


def best_flow_time_lower_bound(instance: Instance, include_lp: bool = False) -> float:
    """The largest certified combinatorial lower bound available.

    ``include_lp`` additionally computes the LP-relaxation bound of
    :mod:`repro.lowerbounds.flow_lp`, which is tighter but far more expensive;
    the experiments enable it only on small instances.
    """
    bounds = [
        total_processing_lower_bound(instance),
        busy_interval_lower_bound(instance),
    ]
    if include_lp:
        from repro.lowerbounds.flow_lp import lp_flow_time_lower_bound

        try:
            bounds.append(lp_flow_time_lower_bound(instance))
        except Exception:  # pragma: no cover - LP solver hiccups must not break reports
            pass
    return max(bounds)
