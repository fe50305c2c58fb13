"""Host-speed calibration: a fixed kernel timed next to every measured segment.

On a shared host the speed one process gets swings with its neighbours'
load: on a 2-vCPU host the same service run went 25 % faster or slower from
one minute to the next, and a pure-Python loop 1.8x, sometimes within one
run.  A run cannot average such phases away, so a bracket of
:func:`calibrate` runs before the first timed segment of a run (a batch
pass, a service session, a set-up probe) and after every one, and each
segment's times are reported in *reference seconds*::

    reference_s = measured_s * NOMINAL_S / mean(bracket before, bracket after)

i.e. what the segment would have taken while the kernel took ``NOMINAL_S``.
The kernel runs only the standard library, so no change to the program moves
it, and a program that gets faster reads faster.  Raw seconds and the
factors are printed next to the scaled figures.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Kernel seconds on the reference host (the median on the 2-vCPU host the
#: benchmark was tuned on); only ratios between runs matter.
NOMINAL_S = 0.040

#: Kernel repetitions per bracket; their median is the bracket's time.
REPEATS = 3

#: Objects in the kernel's table: about 7 MiB, past the per-core caches.
TABLE_ITEMS = 100_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value


def kernel(table: list) -> float:
    """Fixed interpreter work shaped like the program's: a compute-bound half
    (small objects, attribute reads, a heap, a dict, float arithmetic) and a
    memory-bound half (scattered reads and writes over ``table``).

    On the 2-vCPU host, a short ``repro.solve`` moved with this kernel at a
    slope of 1.0 in log time; the compute half alone moved 1.27x more than
    the solve when the host sped up or slowed down.
    """
    rng = random.Random(2018)
    heap: list = []
    index: dict = {}
    acc = 0.0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(2000):
        item = _Item(rng.random(), i)
        push(heap, (item.key, i))
        index[i & 1023] = item
        if len(heap) > 256:
            key, j = pop(heap)
            acc += key * index[j & 1023].value
    size = len(table)
    for j in [rng.randrange(size) for _ in range(30_000)]:
        item = table[j]
        acc += item.key
        item.value += 1
    return acc


def calibrate() -> float:
    """Seconds of one kernel now: the median of ``REPEATS`` runs, GC off."""
    table = [_Item(float(i), i) for i in range(TABLE_ITEMS)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel(table)
            samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def factors(brackets: list[float]) -> list[float]:
    """Per-segment factors turning measured seconds into reference seconds.

    Segment ``i`` ran between brackets ``i`` and ``i + 1``; its factor is the
    nominal kernel time over the mean of the two.
    """
    return [2.0 * NOMINAL_S / (a + b) for a, b in zip(brackets, brackets[1:])]
