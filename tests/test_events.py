"""Unit tests for the virtual-time wave queue."""

import heapq
import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import WaveQueue
from repro.sim.network import Message


def no_messages(message):
    raise AssertionError(f"unexpected delivery {message}")


class TestScheduling:
    def test_fifo_at_same_time(self):
        queue = WaveQueue()
        seen = []
        queue.schedule(5, lambda: seen.append("a"))
        queue.schedule(5, lambda: seen.append("b"))
        queue.run_all(no_messages)
        assert seen == ["a", "b"]

    def test_time_ordering(self):
        queue = WaveQueue()
        seen = []
        queue.schedule(10, lambda: seen.append("late"))
        queue.schedule(1, lambda: seen.append("early"))
        queue.run_all(no_messages)
        assert seen == ["early", "late"]

    def test_now_advances(self):
        queue = WaveQueue()
        queue.schedule(7, lambda: None)
        queue.run_all(no_messages)
        assert queue.now == 7

    def test_negative_delay_rejected(self):
        queue = WaveQueue()
        with pytest.raises(SimulationError):
            queue.schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        queue = WaveQueue()
        seen = []
        queue.schedule(1, lambda: queue.schedule(2, lambda: seen.append(queue.now)))
        queue.run_all(no_messages)
        assert seen == [3]

    def test_event_budget(self):
        queue = WaveQueue()

        def reschedule():
            queue.schedule(1, reschedule)

        queue.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            queue.run_all(no_messages, max_events=50)

    def test_run_all_returns_count(self):
        queue = WaveQueue()
        for _ in range(4):
            queue.schedule(1, lambda: None)
        assert queue.run_all(no_messages) == 4


# A schedule program: nodes pushed at a delay of 0-3 ticks from "now".  A
# "schedule" node is an action that pushes its children when it runs — at
# delay 0 that lands in the wave being walked.
DELAYS = st.integers(0, 3)
LEAVES = st.tuples(st.just("message"), DELAYS, st.just(1)) | st.tuples(
    st.just("run"), DELAYS, st.integers(1, 3)
)
PROGRAMS = st.lists(
    st.recursive(
        LEAVES,
        lambda inner: st.tuples(st.just("schedule"), DELAYS, st.lists(inner, max_size=3)),
        max_leaves=12,
    ),
    min_size=1,
    max_size=6,
)


def heap_order(program):
    """The oracle: a ``(time, seq)`` heap of single events, one per message
    of a run; each node is labelled by its path in the program."""
    heap, seq, order = [], itertools.count(), []

    def push(now, nodes, prefix):
        for i, (kind, delay, arg) in enumerate(nodes):
            label = prefix + (i,)
            for item in [label + (k,) for k in range(arg)] if kind == "run" else [label]:
                children = arg if kind == "schedule" else ()
                heapq.heappush(heap, (now + delay, next(seq), item, children))

    push(0, program, ())
    while heap:
        now, _, label, children = heapq.heappop(heap)
        order.append(label)
        push(now, children, label)
    return order


def wave_order(program, budget=None):
    """What ``WaveQueue.run_all`` executes of ``program``, and its count or
    budget error."""
    queue, order = WaveQueue(), []

    def message(label):
        return Message(None, None, None, 0, "", label)

    def act(label, children):
        order.append(label)
        push(children, label)

    def push(nodes, prefix):
        now = queue.now
        for i, (kind, delay, arg) in enumerate(nodes):
            label = prefix + (i,)
            if kind == "message":
                queue.push_message(now + delay, message(label))
            elif kind == "run":
                queue.push_run(now + delay, [message(label + (k,)) for k in range(arg)])
            else:
                queue.schedule(delay, partial(act, label, arg))

    push(program, ())
    try:
        outcome = queue.run_all(lambda m: order.append(m.payload), budget)
    except SimulationError as error:
        outcome = str(error)
    return order, outcome


class TestHeapOrder:
    """The wave queue runs a schedule in the order a ``(time, seq)`` heap
    pops it, and an event budget cuts exactly the heap's prefix."""

    @settings(max_examples=150, deadline=None)
    @given(PROGRAMS)
    def test_run_all_matches_the_heap_at_every_budget(self, program):
        expected = heap_order(program)
        assert wave_order(program) == (expected, len(expected))
        for budget in range(len(expected) + 2):
            order, outcome = wave_order(program, budget)
            assert order == expected[:budget]
            if budget < len(expected):
                assert outcome == f"event budget of {budget} exhausted"
            else:
                assert outcome == len(expected)
