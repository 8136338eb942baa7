"""Unit tests for the round engine and the event-loop simulator."""

import pytest

from repro.errors import ProtocolError
from repro.sim.network import SelectiveHold
from repro.sim.process import ObjectHandler, ObjectServer
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import OperationStatus, Simulator
from repro.spec.history import HistoryRecorder
from repro.types import object_id, object_ids, reader_id


class EchoHandler(ObjectHandler):
    """Replies with a per-object counter (distinct payload per delivery)."""

    def initial_state(self):
        return {"count": 0}

    def handle(self, state, message):
        state["count"] += 1
        return {"count": state["count"], "tag": message.tag}


def make_simulator(n_objects=4, policy=None, history=None):
    servers = [ObjectServer(pid=pid, handler=EchoHandler()) for pid in object_ids(n_objects)]
    return Simulator(servers, policy=policy, history=history)


def single_round_protocol(rule):
    def generator():
        outcome = yield RoundSpec(tag="Q", payload={}, rule=rule)
        return outcome

    return generator()


class TestRoundEngine:
    def test_round_terminates_at_min_count(self):
        sim = make_simulator(4)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=3)))
        sim.run()
        assert op.status is OperationStatus.COMPLETE
        assert len(op.result.replies) >= 3

    def test_eager_termination_stops_collecting(self):
        # With unit latency all replies arrive together, so use a predicate
        # that is satisfied only by a specific object's presence.
        sim = make_simulator(4)
        rule = ReplyRule(min_count=1, predicate=lambda replies: object_id(1) in replies)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(rule))
        sim.run()
        assert op.status is OperationStatus.COMPLETE
        assert object_id(1) in op.result.replies

    def test_multi_round_operation(self):
        def protocol():
            first = yield RoundSpec(tag="A", payload={}, rule=ReplyRule(min_count=4))
            second = yield RoundSpec(tag="B", payload={}, rule=ReplyRule(min_count=4))
            return (first.round_no, second.round_no)

        sim = make_simulator(4)
        op = sim.invoke(reader_id(1), "read", protocol())
        sim.run()
        assert op.result == (1, 2)
        assert op.rounds_used == 2

    def test_rounds_used_counts_started_rounds(self):
        sim = make_simulator(4)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)))
        sim.run()
        assert op.rounds_used == 1

    def test_quiescence_accepts_partial_replies(self):
        # Hold replies from object 4; rule wants all 4 but accepts at quiescence.
        policy = SelectiveHold(lambda m: m.is_reply and m.src == object_id(4))
        sim = make_simulator(4, policy=policy)
        rule = ReplyRule(min_count=3, predicate=lambda r: len(r) >= 4, accept_on_quiescence=True)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(rule))
        sim.run()
        assert op.status is OperationStatus.COMPLETE
        assert op.result.quiesced is True
        assert len(op.result.replies) == 3

    def test_strict_rule_leaves_operation_pending(self):
        policy = SelectiveHold(lambda m: m.is_reply and m.src == object_id(4))
        sim = make_simulator(4, policy=policy)
        rule = ReplyRule(min_count=4, accept_on_quiescence=False)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(rule))
        sim.run()
        assert op.status is OperationStatus.PENDING
        assert sim.pending_operations() == [op]

    def test_per_object_payload(self):
        class PayloadEcho(ObjectHandler):
            def initial_state(self):
                return {}

            def handle(self, state, message):
                return {"got": message.payload.get("x")}

        servers = [ObjectServer(pid=pid, handler=PayloadEcho()) for pid in object_ids(2)]
        sim = Simulator(servers)

        def protocol():
            outcome = yield RoundSpec(
                tag="Q",
                payload={"x": "default"},
                rule=ReplyRule(min_count=2),
                per_object_payload={object_id(2): {"x": "special"}},
            )
            return {pid: p["got"] for pid, p in outcome.replies.items()}

        op = sim.invoke(reader_id(1), "read", protocol())
        sim.run()
        assert op.result[object_id(1)] == "default"
        assert op.result[object_id(2)] == "special"


class TestClientDiscipline:
    def test_one_outstanding_operation_per_client(self):
        sim = make_simulator(2)
        sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)))
        sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)), at=0)
        with pytest.raises(ProtocolError):
            sim.run()

    def test_sequential_operations_allowed(self):
        sim = make_simulator(2)
        sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)), at=0)
        sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)), at=100)
        sim.run()
        assert len(sim.completed_operations()) == 2

    def test_abort_stops_progress(self):
        sim = make_simulator(2)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)))
        sim.queue.schedule(1, lambda: sim.abort(op))  # before any reply lands
        sim.run()
        assert op.status is OperationStatus.ABORTED and op.rounds_used == 1

    def test_history_recorded(self):
        recorder = HistoryRecorder()
        sim = make_simulator(2, history=recorder)
        sim.invoke(
            reader_id(1), "read", single_round_protocol(ReplyRule(min_count=2)), at=5
        )
        sim.run()
        history = recorder.freeze()
        assert len(history.reads()) == 1
        assert history.reads()[0].complete

    def test_max_rounds_used_by_kind(self):
        sim = make_simulator(2)

        def two_rounds():
            yield RoundSpec(tag="A", payload={}, rule=ReplyRule(min_count=2))
            yield RoundSpec(tag="B", payload={}, rule=ReplyRule(min_count=2))
            return None

        sim.invoke(reader_id(1), "read", two_rounds())
        sim.invoke(reader_id(2), "read", single_round_protocol(ReplyRule(min_count=2)))
        sim.run()
        assert sim.max_rounds_used("read") == 2
        assert sim.max_rounds_used("write") == 0


class TestFaultyObjectsInSimulator:
    def test_silent_objects_do_not_block_quorum(self):
        from repro.faults.adversary import SilentBehavior

        servers = [ObjectServer(pid=pid, handler=EchoHandler()) for pid in object_ids(4)]
        servers[0].behavior = SilentBehavior()
        sim = Simulator(servers)
        op = sim.invoke(reader_id(1), "read", single_round_protocol(ReplyRule(min_count=3)))
        sim.run()
        assert op.status is OperationStatus.COMPLETE
        assert object_id(1) not in op.result.replies
