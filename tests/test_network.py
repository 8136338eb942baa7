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
    RandomDelivery,
    SelectiveHold,
)
from repro.sim.tracing import MessageTrace
from repro.types import fresh_operation_id, object_id, object_ids, reader_id


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


class TestHolding:
    def test_selective_hold_parks_messages(self):
        queue = EventQueue()
        network = Network(queue, policy=SelectiveHold(lambda m: m.tag == "SLOW"))
        received = []
        network.attach(object_id(1), lambda m: received.append(m.tag))
        network.send(make_message(tag="SLOW"))
        network.send(make_message(tag="FAST"))
        queue.run_all()
        assert received == ["FAST"]
        assert len(network.held_messages) == 1

    def test_release_held_delivers(self):
        queue = EventQueue()
        network = Network(queue, policy=SelectiveHold(lambda m: True))
        received = []
        network.attach(object_id(1), lambda m: received.append(m.tag))
        network.send(make_message(tag="a"))
        queue.run_all()
        assert received == []
        assert network.release_held() == 1
        queue.run_all()
        assert received == ["a"]
        assert network.held_messages == ()

    def test_release_with_filter(self):
        queue = EventQueue()
        network = Network(queue, policy=SelectiveHold(lambda m: True))
        received = []
        network.attach(object_id(1), lambda m: received.append(m.tag))
        network.send(make_message(tag="x"))
        network.send(make_message(tag="y"))
        assert network.release_held(match=lambda m: m.tag == "y") == 1
        queue.run_all()
        assert received == ["y"]

    def test_release_preserves_channel_fifo(self):
        queue = EventQueue()
        network = Network(queue, policy=SelectiveHold(lambda m: True))
        received = []
        network.attach(object_id(1), lambda m: received.append(m.tag))
        for i in range(5):
            network.send(make_message(tag=f"m{i}"))
        network.release_held()
        queue.run_all()
        assert received == [f"m{i}" for i in range(5)]


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
        held = make_message(tag="SLOW")
        over_fifo = SelectiveHold(lambda m: m.tag == "SLOW", FifoDelivery(2))
        assert over_fifo.uniform_latency == 2
        assert over_fifo.hold_check(held) and not over_fifo.hold_check(make_message())
        # A hold over a hold: either layer keeps the message in transit.
        stacked = SelectiveHold(lambda m: m.tag == "OTHER", over_fifo)
        assert stacked.hold_check(held) and stacked.hold_check(make_message(tag="OTHER"))
        assert not stacked.hold_check(make_message())
        assert SelectiveHold(lambda m: True, RandomDelivery()).uniform_latency is None
        assert Unshaped(FifoDelivery()).uniform_latency is None
        # The check reads the policy's attributes when asked, as ``delay`` does.
        over_fifo.hold_if = lambda m: m.tag == "OTHER"
        assert not over_fifo.hold_check(held) and over_fifo.delay(held, 0) == 2
        assert pickle.loads(pickle.dumps(SelectiveHold(_is_reply, SelectiveHold(_is_reply)))).hold_check(
            make_message(is_reply=True)
        )

    def test_overriding_delay_alone_withdraws_the_inherited_shape(self):
        """A declaration speaks for the ``delay`` it was written beside: a
        time-dependent hold layered over ``SelectiveHold`` is asked message by
        message, on ``send_round`` too."""

        class HoldFromTick5(SelectiveHold):
            def delay(self, message, now):
                return None if now >= 5 else super().delay(message, now)

        class Restated(HoldFromTick5):
            uniform_latency = 1

            def delay(self, message, now):
                return super().delay(message, 0)

        policy = HoldFromTick5(lambda m: False)
        assert SelectiveHold(lambda m: False).uniform_latency == 1
        assert policy.uniform_latency is None
        assert Restated(lambda m: False).uniform_latency == 1
        queue = EventQueue()
        network = Network(queue, policy=policy)
        assert network.fast_shape() is None
        delivered = []
        network.attach(object_id(1), lambda m: delivered.append(m.tag))
        queue.schedule(1, lambda: network.send_round([make_message(tag="early")]))
        queue.schedule(6, lambda: network.send_round([make_message(tag="late")]))
        queue.run_all()
        assert delivered == ["early"]
        assert [h.message.tag for h in network.held_messages] == ["late"]

    def test_fast_shape_is_granted_only_where_the_watermark_is_inert(self):
        def hold(m):
            return m.tag == "SLOW"

        def shape(policy):
            return Network(EventQueue(), policy=policy).fast_shape()

        assert shape(FifoDelivery(3)) == (3, None)
        held_over_fifo = SelectiveHold(hold, FifoDelivery(1))
        assert shape(held_over_fifo) == (1, held_over_fifo.hold_check)
        # A policy that holds is served only at latency 1 ...
        assert shape(SelectiveHold(hold, FifoDelivery(3))) is None
        assert shape(RandomDelivery()) is None
        # ... and only until the first release.
        network = Network(EventQueue(), policy=SelectiveHold(hold))
        network.attach(object_id(1), lambda m: None)
        network.send_round([make_message(tag="SLOW")])
        assert network.fast_shape() is not None
        assert network.release_held(match=lambda m: False) == 0
        assert network.fast_shape() is not None
        assert network.release_held() == 1
        assert network.fast_shape() is None

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
                [(h.message.dst, h.sent_at) for h in network.held_messages],
            )

        def hold(m):
            return m.dst in (object_id(2), object_id(3))

        fast = run(SelectiveHold(hold))
        assert fast == run(Unshaped(SelectiveHold(hold)))
        assert [dst for dst, _ in fast[1]] == [object_id(2), object_id(3)]
        everything = run(SelectiveHold(lambda m: True))
        assert everything == run(Unshaped(SelectiveHold(lambda m: True)))
        assert len(everything[1]) == 4

    @pytest.mark.parametrize("release_delay", (1, 4))
    @pytest.mark.parametrize("latency", (1, 3))
    def test_release_amid_same_channel_traffic_matches_per_message_path(
        self, latency, release_delay
    ):
        """The FIFO watermark the fast path skips is inert only while nothing
        held is released: a release right after later traffic on the channel
        (clamped by the watermark at latency 3), and traffic right after a
        slow release (clamped at latency 1), land where ``send`` puts them."""
        op = fresh_operation_id(reader_id(1), "read")

        def run(policy):
            queue, trace = EventQueue(), MessageTrace()
            network = Network(queue, policy=policy, trace=trace)
            delivered = []
            network.attach(object_id(1), lambda m: delivered.append((queue.now, m.tag)))

            def send(tag):
                network.send_round([Message(
                    src=reader_id(1), dst=object_id(1), op=op, round_no=1,
                    tag=tag, payload={},
                )])

            send("held")
            queue.schedule(5, lambda: send("later"))
            queue.schedule(6, lambda: network.release_held(delay=release_delay))
            queue.schedule(7, lambda: send("after"))
            queue.run_all()
            return delivered, [(time, kind, m.tag) for time, kind, m in trace.entries]

        def policy():
            return SelectiveHold(lambda m: m.tag == "held", FifoDelivery(latency))

        delivered, entries = run(policy())
        assert (delivered, entries) == run(Unshaped(policy()))
        ticks = dict((tag, tick) for tick, tag in delivered)
        # Never before the later message's slot, never overtaken afterwards.
        assert ticks["later"] <= ticks["held"] <= ticks["after"]
        assert ticks["held"] == max(6 + release_delay, 5 + latency)
