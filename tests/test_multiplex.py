"""Tests for register multiplexing (shared physical rounds)."""

import pytest

from repro.errors import ProtocolError
from repro.registers.abd import AbdObjectHandler, QUERY
from repro.registers.multiplex import MULTI, MultiplexObjectHandler, multiplex
from repro.sim.network import Message
from repro.sim.rounds import ReplyRule, RoundOutcome, RoundSpec
from repro.types import TaggedValue, Timestamp, fresh_operation_id, object_id, reader_id


def multi_message(calls):
    return Message(
        src=reader_id(1), dst=object_id(1),
        op=fresh_operation_id(reader_id(1), "read"),
        round_no=1, tag=MULTI, payload={"calls": calls},
    )


class TestMultiplexHandler:
    def test_registers_created_lazily(self):
        handler = MultiplexObjectHandler(AbdObjectHandler())
        state = handler.initial_state()
        handler.handle(state, multi_message({"A": {"tag": QUERY, "payload": {}}}))
        assert "A" in state["registers"]
        assert "B" not in state["registers"]

    def test_per_register_isolation(self):
        handler = MultiplexObjectHandler(AbdObjectHandler())
        state = handler.initial_state()
        store = {"tag": "ABD_STORE", "payload": {"tv": TaggedValue(Timestamp(1), "x")}}
        handler.handle(state, multi_message({"A": store}))
        reply = handler.handle(state, multi_message({
            "A": {"tag": QUERY, "payload": {}},
            "B": {"tag": QUERY, "payload": {}},
        }))
        assert reply["calls"]["A"]["tv"].value == "x"
        assert reply["calls"]["B"]["tv"] == TaggedValue.initial()

    def test_wrong_tag_reports_error(self):
        handler = MultiplexObjectHandler(AbdObjectHandler())
        state = handler.initial_state()
        message = Message(
            src=reader_id(1), dst=object_id(1),
            op=fresh_operation_id(reader_id(1), "read"),
            round_no=1, tag="NOT_MULTI", payload={},
        )
        assert "error" in handler.handle(state, message)

    def test_malformed_payload_reports_error(self):
        handler = MultiplexObjectHandler(AbdObjectHandler())
        state = handler.initial_state()
        message = Message(
            src=reader_id(1), dst=object_id(1),
            op=fresh_operation_id(reader_id(1), "read"),
            round_no=1, tag=MULTI, payload={"calls": "garbage"},
        )
        assert "error" in handler.handle(state, message)

    def test_only_mappings_pass_as_calls(self):
        from types import MappingProxyType

        handler = MultiplexObjectHandler(AbdObjectHandler())
        state = handler.initial_state()
        for junk in (None, ["A"], 7, ("A",)):
            message = multi_message(junk)
            assert handler.handle(state, message) == {"error": "malformed MULTI payload"}
        assert state["registers"] == {}
        # Any Mapping is well-formed, not only the dict correct clients send.
        proxy = MappingProxyType({"A": {"tag": QUERY, "payload": {}}})
        assert handler.handle(state, multi_message(proxy))["calls"]["A"]["tv"] == (
            TaggedValue.initial()
        )

    def test_state_is_built_once_per_register_and_calls_see_their_own_message(self):
        built = []
        seen = []

        class Recording(AbdObjectHandler):
            def initial_state(self):
                built.append(1)
                return super().initial_state()

            def handle(self, state, message):
                seen.append((message.tag, dict(message.payload), message.src,
                             message.dst, message.op, message.round_no, message.is_reply))
                return super().handle(state, message)

        handler = MultiplexObjectHandler(Recording())
        state = handler.initial_state()
        store = {"tag": "ABD_STORE", "payload": {"tv": TaggedValue(Timestamp(1), "x")}}
        query = {"tag": QUERY, "payload": {}}
        outer = multi_message({"B": query, "A": store})
        for _ in range(3):
            handler.handle(state, outer)
        assert len(built) == 2  # one state per register, not one per call
        assert seen[:2] == [
            ("ABD_STORE", store["payload"], outer.src, outer.dst, outer.op, 1, False),
            (QUERY, {}, outer.src, outer.dst, outer.op, 1, False),
        ]
        assert outer.tag == MULTI and set(outer.payload["calls"]) == {"A", "B"}


def drive(combinator, reply_maker, max_rounds=10):
    """Synchronously drive a multiplex generator with fabricated replies."""
    outcomes = []
    try:
        spec = next(combinator)
        for round_no in range(1, max_rounds + 1):
            replies = reply_maker(spec, round_no)
            outcomes.append(spec)
            spec = combinator.send(RoundOutcome(round_no=round_no, replies=replies))
    except StopIteration as stop:
        return stop.value, outcomes
    raise AssertionError("combinator did not finish")


class TestMultiplexCombinator:
    def _single_round_gen(self, name, result):
        def generator():
            outcome = yield RoundSpec(tag=f"Q-{name}", payload={"who": name},
                                      rule=ReplyRule(min_count=1))
            return (result, len(outcome.replies))

        return generator()

    def test_lockstep_and_projection(self):
        combinator = multiplex({
            "A": self._single_round_gen("A", "ra"),
            "B": self._single_round_gen("B", "rb"),
        })

        def replies(spec, round_no):
            assert spec.tag == MULTI
            calls = spec.payload["calls"]
            assert set(calls) == {"A", "B"}
            return {object_id(1): {"calls": {name: {"ok": name} for name in calls}}}

        result, rounds = drive(combinator, replies)
        assert result == {"A": ("ra", 1), "B": ("rb", 1)}
        assert len(rounds) == 1  # both substrates shared one physical round

    def test_uneven_round_counts(self):
        def two_rounds():
            yield RoundSpec(tag="R1", payload={}, rule=ReplyRule(min_count=1))
            yield RoundSpec(tag="R2", payload={}, rule=ReplyRule(min_count=1))
            return "long"

        combinator = multiplex({"short": self._single_round_gen("s", "s"), "long": two_rounds()})

        def replies(spec, round_no):
            calls = spec.payload["calls"]
            return {object_id(1): {"calls": {name: {} for name in calls}}}

        result, rounds = drive(combinator, replies)
        assert result["long"] == "long"
        assert len(rounds) == 2
        # Second physical round only carries the long substrate.
        assert set(rounds[1].payload["calls"]) == {"long"}

    def test_merged_rule_requires_every_substrate(self):
        def picky(name):
            def generator():
                outcome = yield RoundSpec(
                    tag=f"Q{name}", payload={},
                    rule=ReplyRule(min_count=1,
                                   predicate=lambda r: any(name in str(p) for p in r.values())),
                )
                return name

            return generator()

        combinator = multiplex({"A": picky("A"), "B": picky("B")})
        spec = next(combinator)
        # Replies satisfying only A's predicate: merged rule must be false.
        partial = {object_id(1): {"calls": {"A": {"data": "A"}, "B": {"data": "nope"}}}}
        assert not spec.rule.satisfied(partial)
        full = {object_id(1): {"calls": {"A": {"data": "A"}, "B": {"data": "B"}}}}
        assert spec.rule.satisfied(full)

    def test_nested_multiplex_flattens(self):
        inner = multiplex({"X": self._single_round_gen("X", "x")})
        combinator = multiplex({"outer": inner})
        spec = next(combinator)
        assert set(spec.payload["calls"]) == {"outer/X"}

    def test_malformed_byzantine_reply_invisible(self):
        # A reply that is not a mapping at all never reaches a reply set:
        # the engines leave it out (tests/test_faults.py, malformed replies).
        combinator = multiplex({"A": self._single_round_gen("A", "ra")})
        spec = next(combinator)
        replies = {
            object_id(1): {"calls": {"A": {}}},
            object_id(2): {"garbage": True},     # fabricated junk
            object_id(3): {"calls": "junk"},     # a garbled call bundle
        }
        assert spec.rule.satisfied(replies)
        try:
            combinator.send(RoundOutcome(round_no=1, replies=replies))
        except StopIteration as stop:
            assert stop.value == {"A": ("ra", 1)}

    def test_projection_follows_the_reply_set_it_is_given(self):
        # The combinator projects once per reply-set size: a grown set and a
        # copy are projected afresh, and the substrate's outcome is the view
        # its rule last judged when the engine hands over that same set.
        judged = []

        def generator():
            outcome = yield RoundSpec(
                tag="Q", payload={},
                rule=ReplyRule(min_count=1,
                               predicate=lambda r: judged.append(r) or len(r) >= 2),
            )
            return outcome.replies

        combinator = multiplex({"A": generator()})
        spec = next(combinator)
        replies = {object_id(1): {"calls": {"A": {"n": 1}}}}
        assert not spec.rule.satisfied(replies)
        assert not spec.rule.satisfied(replies)
        assert judged[0] is judged[1] and judged[0] == {object_id(1): {"n": 1}}
        replies[object_id(2)] = {"calls": {"A": {"n": 2}}}
        assert spec.rule.satisfied(replies)
        assert judged[2] == {object_id(1): {"n": 1}, object_id(2): {"n": 2}}
        with pytest.raises(StopIteration) as same_set:
            combinator.send(RoundOutcome(round_no=1, replies=replies))
        assert same_set.value.value["A"] is judged[2]

        combinator = multiplex({"A": generator()})
        spec = next(combinator)
        assert spec.rule.satisfied(replies)
        smaller = {object_id(3): {"calls": {"A": {"n": 3}}}}
        with pytest.raises(StopIteration) as other_set:
            combinator.send(RoundOutcome(round_no=1, replies=smaller))
        assert other_set.value.value["A"] == {object_id(3): {"n": 3}}

    def test_nested_projection_needs_every_inner_register(self):
        inner = multiplex({
            "X": self._single_round_gen("X", "x"),
            "Y": self._single_round_gen("Y", "y"),
        })
        combinator = multiplex({"outer": inner})
        spec = next(combinator)
        replies = {
            object_id(1): {"calls": {"outer/X": {}, "outer/Y": {}}},
            object_id(2): {"calls": {"outer/X": {}}},  # incomplete: invisible
        }
        assert spec.rule.satisfied(replies)
        with pytest.raises(StopIteration) as done:
            combinator.send(RoundOutcome(round_no=1, replies=replies))
        assert done.value.value == {"outer": {"X": ("x", 1), "Y": ("y", 1)}}

    def test_per_object_payload_forbidden(self):
        def bad():
            yield RoundSpec(tag="Q", payload={}, rule=ReplyRule(min_count=1),
                            per_object_payload={object_id(1): {"x": 1}})
            return None

        combinator = multiplex({"A": bad()})
        with pytest.raises(ProtocolError):
            next(combinator)
