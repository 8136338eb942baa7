"""Unit tests for channels, delivery policies, and message holding."""

import pickle

import pytest

from repro.errors import ChannelError
from repro.sim.events import EventQueue
from repro.sim.network import (
    DeliveryPolicy,
    FifoDelivery,
    Message,
    Network,
    SelectiveHold,
)
from repro.sim.tracing import MessageTrace, TraceKind
from repro.types import fresh_operation_id, object_id, object_ids, reader_id

from helpers import RandomDelivery, ShapedHold


def make_message(dst_index=1, tag="PING", is_reply=False, src=None):
    return Message(
        src=src or reader_id(1),
        dst=object_id(dst_index),
        op=fresh_operation_id(reader_id(1), "read"),
        round_no=1,
        tag=tag,
        payload={},
        is_reply=is_reply,
    )


class TestFifoDelivery:
    def test_unit_latency_default(self):
        assert FifoDelivery().delay(make_message(), 0) == 1

    def test_rejects_zero_latency(self):
        with pytest.raises(ChannelError):
            FifoDelivery(latency=0)


class TestRandomDelivery:
    def test_deterministic_per_seed(self):
        a = RandomDelivery(seed=7)
        b = RandomDelivery(seed=7)
        msgs = [make_message() for _ in range(20)]
        assert [a.delay(m, 0) for m in msgs] == [b.delay(m, 0) for m in msgs]

    def test_within_bounds(self):
        policy = RandomDelivery(seed=1, min_latency=2, max_latency=5)
        for _ in range(50):
            assert 2 <= policy.delay(make_message(), 0) <= 5

    def test_rejects_bad_bounds(self):
        with pytest.raises(ChannelError):
            RandomDelivery(min_latency=5, max_latency=2)


class TestNetworkDelivery:
    def test_delivers_to_attached_handler(self):
        queue = EventQueue()
        network = Network(queue)
        received = []
        network.attach(object_id(1), received.append)
        network.send(make_message())
        queue.run_all()
        assert len(received) == 1

    def test_fifo_per_channel_under_random_delays(self):
        queue = EventQueue()
        network = Network(queue, policy=RandomDelivery(seed=3, max_latency=20))
        received = []
        network.attach(object_id(1), lambda m: received.append(m.tag))
        for i in range(10):
            network.send(make_message(tag=f"m{i}"))
        queue.run_all()
        assert received == [f"m{i}" for i in range(10)]

    def test_drop_for_detached_destination(self):
        queue = EventQueue()
        network = Network(queue)
        network.attach(object_id(1), lambda m: None)
        network.detach(object_id(1))
        network.send(make_message())
        queue.run_all()  # no exception: dropped silently (crashed client)

    def test_send_round_delivers_the_whole_broadcast(self):
        queue = EventQueue()
        network = Network(queue)
        received = []
        for pid in object_ids(4):
            network.attach(pid, received.append)
        op = fresh_operation_id(reader_id(1), "read")
        network.send_round([
            Message(src=reader_id(1), dst=dst, op=op, round_no=1, tag="PING", payload={})
            for dst in object_ids(4)
        ])
        queue.run_all()
        assert [m.dst for m in received] == list(object_ids(4))


def held_tags(trace):
    return [m.tag for _, kind, m in trace.entries if kind is TraceKind.HOLD]


class TestHolding:
    def test_selective_hold_parks_messages(self):
        queue, trace = EventQueue(), MessageTrace()
        network = Network(queue, policy=SelectiveHold(lambda m: m.tag == "SLOW"), trace=trace)
        received = []
        network.attach(object_id(1), lambda m: received.append(m.tag))
        network.send(make_message(tag="SLOW"))
        network.send(make_message(tag="FAST"))
        queue.run_all()
        assert received == ["FAST"]
        assert held_tags(trace) == ["SLOW"]


def _is_reply(message):
    return message.is_reply


class Unshaped(DeliveryPolicy):
    """``inner``'s decisions through ``delay`` alone: it declares no shape,
    so the network serves it message by message — the reference path."""

    def __init__(self, inner):
        self.inner = inner

    def delay(self, message, now):
        return self.inner.delay(message, now)


class TestPolicyShape:
    def test_declared_shapes(self):
        assert (FifoDelivery(3).uniform_latency, FifoDelivery(3).hold_check) == (3, None)
        assert RandomDelivery().uniform_latency is None
        assert Unshaped(FifoDelivery()).uniform_latency is None
        # A hold predicate may read anything: SelectiveHold declares nothing.
        over_fifo = SelectiveHold(lambda m: m.tag == "SLOW", FifoDelivery(2))
        assert (over_fifo.uniform_latency, over_fifo.hold_check) == (None, None)
        assert over_fifo.delay(make_message(tag="SLOW"), 0) is None
        assert over_fifo.delay(make_message(), 0) == 2
        assert pickle.loads(pickle.dumps(SelectiveHold(_is_reply, SelectiveHold(_is_reply)))).delay(
            make_message(is_reply=True), 0
        ) is None

    def test_overriding_delay_alone_withdraws_the_inherited_shape(self):
        """A declaration speaks for the ``delay`` it was written beside: a
        time-dependent hold layered over ``FifoDelivery`` is asked message by
        message, on ``send_round`` too."""

        class HoldFromTick5(FifoDelivery):
            def delay(self, message, now):
                return None if now >= 5 else super().delay(message, now)

        class Restated(HoldFromTick5):
            uniform_latency = 1

            def delay(self, message, now):
                return super().delay(message, 0)

        policy = HoldFromTick5()
        assert FifoDelivery().uniform_latency == 1
        assert policy.uniform_latency is None
        assert Restated().uniform_latency == 1
        queue, trace = EventQueue(), MessageTrace()
        network = Network(queue, policy=policy, trace=trace)
        assert network.fast_shape() is None
        delivered = []
        network.attach(object_id(1), lambda m: delivered.append(m.tag))
        queue.schedule(1, lambda: network.send_round([make_message(tag="early")]))
        queue.schedule(6, lambda: network.send_round([make_message(tag="late")]))
        queue.run_all()
        assert delivered == ["early"]
        assert held_tags(trace) == ["late"]

    def test_fast_shape_is_granted_to_every_declared_latency(self):
        def hold(m):
            return m.tag == "SLOW"

        def shape(policy):
            return Network(EventQueue(), policy=policy).fast_shape()

        assert shape(FifoDelivery(3)) == (3, None)
        held_at_one = ShapedHold(hold)
        assert shape(held_at_one) == (1, held_at_one.hold_check)
        # A held message never lands, so holding is served at any latency.
        held_at_three = ShapedHold(hold, 3)
        assert shape(held_at_three) == (3, held_at_three.hold_check)
        assert shape(SelectiveHold(hold)) is None
        assert shape(RandomDelivery()) is None

    def test_send_round_places_held_messages_like_send(self):
        """SEND,HOLD of a held message sit where the per-message path puts them."""
        op = fresh_operation_id(reader_id(1), "read")

        def run(policy):
            queue, trace = EventQueue(), MessageTrace()
            network = Network(queue, policy=policy, trace=trace)
            for pid in object_ids(4):
                network.attach(pid, lambda m: None)
            network.send_round([
                Message(src=reader_id(1), dst=dst, op=op, round_no=1, tag="Q", payload={})
                for dst in object_ids(4)
            ])
            network.send_round([])
            queue.run_all()
            return (
                [(time, kind, m.dst) for time, kind, m in trace.entries],
                [(m.dst, time) for time, kind, m in trace.entries if kind is TraceKind.HOLD],
            )

        def hold(m):
            return m.dst in (object_id(2), object_id(3))

        fast = run(ShapedHold(hold))
        assert fast == run(Unshaped(ShapedHold(hold)))
        assert [dst for dst, _ in fast[1]] == [object_id(2), object_id(3)]
        everything = run(ShapedHold(lambda m: True))
        assert everything == run(Unshaped(ShapedHold(lambda m: True)))
        assert len(everything[1]) == 4
