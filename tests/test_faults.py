"""Unit tests for fault behaviours and adversarial schedules."""

import pytest

from repro.api import Cluster
from repro.api.registry import available_protocols
from repro.faults.adversary import CrashAt, SilentBehavior, flaky_behavior
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.faults.schedules import WithholdFrom
from repro.registers.abd import STORE, AbdObjectHandler, QUERY
from repro.sim.network import Message
from repro.sim.process import ObjectServer
from repro.types import TaggedValue, Timestamp, fresh_operation_id, object_id, reader_id, writer_id


def query_message(round_no=1):
    return Message(
        src=reader_id(1),
        dst=object_id(1),
        op=fresh_operation_id(reader_id(1), "read"),
        round_no=round_no,
        tag=QUERY,
        payload={},
    )


def store_message(seq, value):
    return Message(
        src=writer_id(),
        dst=object_id(1),
        op=fresh_operation_id(writer_id(), "write"),
        round_no=1,
        tag=STORE,
        payload={"tv": TaggedValue(Timestamp(seq), value)},
    )


def make_server(behavior=None):
    return ObjectServer(pid=object_id(1), handler=AbdObjectHandler(), behavior=behavior)


class TestBenignBehaviors:
    def test_silent_never_replies(self):
        server = make_server(SilentBehavior())
        assert server.receive(query_message()) is None

    def test_silent_still_applies_state(self):
        server = make_server(SilentBehavior())
        server.receive(store_message(1, "x"))
        assert server.state["tv"].value == "x"

    def test_crash_at_replies_then_stops(self):
        server = make_server(CrashAt(survive_messages=2))
        assert server.receive(query_message()) is not None
        assert server.receive(query_message()) is not None
        assert server.receive(query_message()) is None

    def test_crash_at_zero_is_silent(self):
        server = make_server(CrashAt(survive_messages=0))
        assert server.receive(query_message()) is None

    def test_crash_at_rejects_negative(self):
        with pytest.raises(ValueError):
            CrashAt(survive_messages=-1)

    def test_flaky_deterministic_per_seed(self):
        a = make_server(flaky_behavior(p_reply=0.5, seed=9))
        b = make_server(flaky_behavior(p_reply=0.5, seed=9))
        pattern_a = [a.receive(query_message()) is None for _ in range(20)]
        pattern_b = [b.receive(query_message()) is None for _ in range(20)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_flaky_validates_probability(self):
        with pytest.raises(ValueError):
            flaky_behavior(p_reply=1.5)


class TestStaleEcho:
    def test_echoes_frozen_state_forever(self):
        server = make_server()
        server.receive(store_message(1, "frozen"))
        server.behavior = StaleEchoBehavior.freezing(server)
        server.receive(store_message(2, "newer"))
        reply = server.receive(query_message())
        assert reply["tv"].value == "frozen"

    def test_empty_freeze_means_initial_state(self):
        server = make_server(StaleEchoBehavior(frozen_state={}))
        server.receive(store_message(1, "x"))
        reply = server.receive(query_message())
        assert reply["tv"] == TaggedValue.initial()


class TestFabrication:
    def test_default_fabricator_inflates_timestamps(self):
        server = make_server(FabricatingBehavior())
        server.receive(store_message(3, "real"))
        reply = server.receive(query_message())
        assert reply["tv"].ts.seq > 1_000_000
        assert reply["tv"].value == "<fabricated>"

    def test_custom_fabricator(self):
        server = make_server(
            FabricatingBehavior(lambda m, honest: {"tv": TaggedValue(Timestamp(99), "evil")})
        )
        reply = server.receive(query_message())
        assert reply["tv"].value == "evil"

    def test_fabricator_may_choose_silence(self):
        server = make_server(FabricatingBehavior(lambda m, honest: None))
        assert server.receive(query_message()) is None

    def test_default_fabricator_forges_nested_payloads(self):
        inner = TaggedValue(Timestamp(3), "real")
        forged = FabricatingBehavior().reply(
            make_server(), query_message(), {"calls": {"k1": {"w": inner, "n": 1}}}
        )
        assert forged["calls"]["k1"]["w"].ts.seq == 1_000_003
        assert forged["calls"]["k1"]["w"].value == "<fabricated>"
        assert forged["calls"]["k1"]["n"] == 1

    @pytest.mark.parametrize("name, backend", [
        *((name, {}) for name in available_protocols()),
        ("abd", {"backend": "sharded", "keys": 2}),
        ("abd", {"backend": "reconfig"}),
    ], ids=lambda arg: arg.get("backend", "default") if isinstance(arg, dict) else arg)
    def test_fabrication_reaches_every_stack(self, name, backend, monkeypatch):
        """``fabricating`` alters some reply on every registered protocol (on
        its default backend) and on the sharded and reconfig backends —
        multiplexed stacks nest their tagged values in dicts."""
        honest_reply = FabricatingBehavior.reply
        altered = []

        def counting_reply(self, server, message, honest_payload):
            forged = honest_reply(self, server, message, honest_payload)
            altered.append(forged != honest_payload)
            return forged

        monkeypatch.setattr(FabricatingBehavior, "reply", counting_reply)
        (
            Cluster(name, t=1, n_readers=2, **backend)
            .with_faults("fabricating")
            .with_workload(operations=10)
            .run(trials=1, seed=3)
        )
        assert altered and sum(altered) > 0, f"0 of {len(altered)} replies altered"

    @pytest.mark.parametrize("name, backend", [
        ("atomic-fast-regular", {}),
        ("atomic-secret-token", {}),
        ("mwmr-fast-regular", {}),
        ("mwmr-secret-token", {}),
        ("atomic-fast-regular", {"backend": "sharded", "keys": 2}),
    ], ids=lambda arg: arg.get("backend", "default") if isinstance(arg, dict) else arg)
    def test_garbled_register_replies_are_outvoted(self, name, backend):
        """A Byzantine object that keeps the MULTI envelope but replaces each
        register's reply with a string is dropped from every substrate's
        view, like a malformed envelope: the trial gets a verdict, not a
        traceback."""
        trial = (
            Cluster(name, **backend)
            .with_faults("fabricating", count=1,
                         fabricate=lambda m, honest: {"calls": {k: "junk" for k in honest["calls"]}})
            .with_workload(operations=10, spacing=40)
            .check("atomicity")
            .run(trials=1, seed=3)
        ).trials[0]
        assert trial.incomplete == 0 and trial.ok


class TestSchedules:
    def test_withhold_from_targets_replies(self):
        policy = WithholdFrom(objects=[object_id(1)])
        op = fresh_operation_id(reader_id(1), "read")
        reply = Message(src=object_id(1), dst=reader_id(1), op=op, round_no=1, tag="Q",
                        payload={}, is_reply=True)
        other = Message(src=object_id(2), dst=reader_id(1), op=op, round_no=1, tag="Q",
                        payload={}, is_reply=True)
        assert policy.delay(reply, 0) is None
        assert policy.delay(other, 0) == 1

    def test_withhold_from_specific_clients_only(self):
        policy = WithholdFrom(objects=[object_id(1)], clients=[reader_id(2)])
        op = fresh_operation_id(reader_id(1), "read")
        to_r1 = Message(src=object_id(1), dst=reader_id(1), op=op, round_no=1, tag="Q",
                        payload={}, is_reply=True)
        to_r2 = Message(src=object_id(1), dst=reader_id(2), op=op, round_no=1, tag="Q",
                        payload={}, is_reply=True)
        assert policy.delay(to_r1, 0) == 1
        assert policy.delay(to_r2, 0) is None
