"""Shortest-Remaining-Processing-Time relaxations.

Preemptive SRPT is optimal for total flow time on a single machine, so its
value lower-bounds the best *non-preemptive* single-machine schedule.  For
unrelated machines no such clean statement exists; we expose

* :func:`srpt_single_machine_flow_time` — exact preemptive SRPT on one
  machine (certified lower bound for single-machine instances), and
* :func:`srpt_unrelated_lower_bound` — the standard *heuristic* relaxation
  that pools the ``m`` machines into one machine of speed ``m`` and gives
  every job its best processing time.  It is a useful optimistic reference
  for the experiment tables but is **not certified**; certified bounds live
  in :mod:`repro.lowerbounds`.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.exceptions import InvalidParameterError
from repro.simulation.instance import Instance


def srpt_single_machine_flow_time(
    jobs: Sequence[tuple[float, float]], speed: float = 1.0
) -> float:
    """Total flow time of preemptive SRPT on one machine of the given speed.

    Parameters
    ----------
    jobs:
        Sequence of ``(release, processing_time)`` pairs.
    speed:
        Machine speed; remaining work decreases at this rate.
    """
    if speed <= 0:
        raise InvalidParameterError(f"speed must be positive, got {speed}")
    order = sorted((float(r), float(p)) for r, p in jobs)
    for _, p in order:
        if p <= 0:
            raise InvalidParameterError("processing times must be positive")

    total_flow = 0.0
    time = 0.0
    index = 0
    heap: list[tuple[float, int, float]] = []  # (remaining, job index, release)
    n = len(order)
    while index < n or heap:
        if not heap:
            time = max(time, order[index][0])
        # Admit everything released by the current time.
        while index < n and order[index][0] <= time + 1e-12:
            release, size = order[index]
            heapq.heappush(heap, (size, index, release))
            index += 1
        if not heap:
            continue
        remaining, job_idx, release = heapq.heappop(heap)
        next_release = order[index][0] if index < n else float("inf")
        finish = time + remaining / speed
        if finish <= next_release + 1e-12:
            total_flow += finish - release
            time = finish
        else:
            processed = (next_release - time) * speed
            heapq.heappush(heap, (remaining - processed, job_idx, release))
            time = next_release
    return total_flow


def srpt_unrelated_lower_bound(instance: Instance) -> float:
    """Heuristic pooled-machine SRPT reference for unrelated machines.

    Every job is given its best processing time ``min_i p_ij`` and all
    machines are merged into a single machine of speed ``m``.  The resulting
    preemptive SRPT value is reported as an optimistic reference point; it is
    not a certified lower bound (merging machines can help flow time), so the
    experiments label it "srpt-pooled (reference)".
    """
    m = instance.num_machines
    jobs = [(job.release, job.min_size()) for job in instance.jobs]
    if not jobs:
        return 0.0
    return srpt_single_machine_flow_time(jobs, speed=float(m))
