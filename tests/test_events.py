"""Unit tests for the event queues: :mod:`repro.simulation.events` and the
fused stepper's :class:`~repro.simulation.fused.ArrayEventQueue`.

Both queues promise the same pop order — time, then completions before
arrivals, then insertion order — so every ordering case runs against both.
Arrivals are pushed in non-decreasing time, as the stepper offers them (it
refuses an offer below the previous one); completions come in any order.
"""

import random

import pytest

from repro.exceptions import SimulationError
from repro.simulation.events import EventKind, EventQueue
from repro.simulation.fused import ArrayEventQueue

QUEUES = pytest.mark.parametrize("make_queue", [EventQueue, ArrayEventQueue])


@QUEUES
class TestEventQueueOrdering:
    def test_time_order(self, make_queue):
        queue = make_queue()
        queue.push_completion(5.0, job_id=1, machine=0, version=0)
        queue.push_arrival(3.0, job_id=2)
        queue.push_completion(2.0, job_id=3, machine=0, version=0)
        queue.push_arrival(6.0, job_id=4)
        queue.push_completion(7.0, job_id=5, machine=0, version=0)
        assert [queue.pop().job_id for _ in range(5)] == [3, 2, 1, 4, 5]

    def test_completion_before_arrival_at_same_time(self, make_queue):
        queue = make_queue()
        queue.push_arrival(3.0, job_id=1)
        queue.push_completion(3.0, job_id=2, machine=0, version=0)
        assert queue.pop().kind == EventKind.COMPLETION
        assert queue.pop().kind == EventKind.ARRIVAL

    def test_fifo_among_equal_events(self, make_queue):
        queue = make_queue()
        for job_id in range(5):
            queue.push_arrival(1.0, job_id=job_id)
        assert [queue.pop().job_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_random_interleaving_matches_reference_order(self, make_queue):
        # Arrivals in non-decreasing time, completions in any order (even
        # below popped events), pops interleaved, many equal timestamps: the
        # array queue's arrival cursor and completion heap must reproduce
        # the reference (time, kind, seq) pop order.
        rng, queue, model, popped, expected = random.Random(3), make_queue(), [], [], []
        release = 0
        for seq in range(300):
            time, kind = float(rng.randint(0, 8)), rng.randrange(2)
            if kind == 1:
                release += rng.choice((0, 0, 1))
                time = float(release)
            if model and rng.random() < 0.4:
                model.sort()
                popped.append(queue.pop().job_id)
                expected.append(model.pop(0)[2])
                continue
            if kind == 0:
                queue.push_completion(time, job_id=seq, machine=0, version=0)
            else:
                queue.push_arrival(time, job_id=seq)
            model.append((time, kind, seq))
        popped += [queue.pop().job_id for _ in range(len(queue))]
        assert popped == expected + [seq for _, _, seq in sorted(model)]

    def test_len_and_bool(self, make_queue):
        queue = make_queue()
        assert not queue and len(queue) == 0
        queue.push_arrival(0.0, job_id=0)
        assert queue and len(queue) == 1

    def test_peek_time(self, make_queue):
        queue = make_queue()
        queue.push_completion(4.0, job_id=0, machine=0, version=0)
        queue.push_arrival(2.0, job_id=1)
        assert queue.peek_time() == pytest.approx(2.0)
        queue.push_completion(1.5, job_id=2, machine=0, version=0)
        assert queue.peek_time() == pytest.approx(1.5)


@QUEUES
class TestEventQueueErrors:
    def test_pop_empty_raises(self, make_queue):
        with pytest.raises(SimulationError):
            make_queue().pop()

    def test_peek_empty_raises(self, make_queue):
        with pytest.raises(SimulationError):
            make_queue().peek_time()

    def test_negative_time_rejected(self, make_queue):
        with pytest.raises(SimulationError):
            make_queue().push_arrival(-1.0, job_id=0)
        with pytest.raises(SimulationError):
            make_queue().push_completion(-1.0, job_id=0, machine=0, version=0)

    def test_completion_carries_version(self, make_queue):
        queue = make_queue()
        queue.push_completion(1.0, job_id=3, machine=2, version=7)
        event = queue.pop()
        assert event.machine == 2 and event.version == 7
