"""Tests for message tracing and reply transcripts."""

import io
import json

from repro.faults.adversary import SilentBehavior
from repro.faults.schedules import WithholdFrom
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.sim.tracing import MessageTrace, TraceKind, dump_trace_jsonl, merge_transcripts
from repro.types import object_id, scoped_operation_serials


def run_abd():
    system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
    write_op = system.write("a", at=0)
    read_op = system.read(1, at=50)
    system.run()
    return system, write_op, read_op


class TestTraceQueries:
    def test_round_trip_count_matches_engine(self):
        system, write_op, read_op = run_abd()
        assert system.trace.round_trip_count(write_op.op_id) == 1
        assert system.trace.round_trip_count(read_op.op_id) == 2

    def test_replies_for_operation(self):
        system, _, read_op = run_abd()
        replies = system.trace.replies_for_operation(read_op.op_id)
        assert all(m.is_reply for m in replies)
        assert len(replies) == 6  # 3 objects × 2 rounds (S=3, unit latency)

    def test_delivered_to_client(self):
        system, _, read_op = run_abd()
        delivered = system.trace.delivered_to(read_op.client)
        assert delivered
        assert all(m.dst == read_op.client for m in delivered)

    def test_messages_between_in_order(self):
        from repro.types import object_id, writer_id

        system, _, _ = run_abd()
        messages = system.trace.messages_between(writer_id(), object_id(1))
        assert [m.round_no for m in messages] == sorted(m.round_no for m in messages)

    def test_client_transcript_is_canonical(self):
        system, _, read_op = run_abd()
        transcript = system.trace.client_transcript(read_op.op_id)
        keys = [(e.round_no, e.source) for e in transcript]
        assert keys == sorted(keys)
        assert {entry.round_no for entry in transcript} == {1, 2}

    def test_transcripts_equal_for_identical_runs(self):
        system_a, _, read_a = run_abd()
        system_b, _, read_b = run_abd()
        a = [(e.round_no, e.source, e.payload_items)
             for e in system_a.trace.client_transcript(read_a.op_id)]
        b = [(e.round_no, e.source, e.payload_items)
             for e in system_b.trace.client_transcript(read_b.op_id)]
        assert a == b

    def test_merge_transcripts(self):
        system, _, read_op = run_abd()
        merged = merge_transcripts([system.trace], read_op.op_id)
        assert merged == system.trace.client_transcript(read_op.op_id)

    def test_event_kinds_recorded(self):
        system, _, _ = run_abd()
        kinds = {event.kind for event in system.trace.events}
        assert TraceKind.SEND in kinds
        assert TraceKind.DELIVER in kinds


class TestTraceRelease:
    """An untraced facade trial frees its wire log without the collector."""

    @staticmethod
    def live_messages():
        import gc

        from repro.sim.network import Message

        return sum(1 for obj in gc.get_objects() if type(obj) is Message)

    def test_clear_empties_both_views(self):
        system, write_op, _ = run_abd()
        assert system.trace.events
        system.trace.clear()
        assert system.trace.entries == [] and system.trace.events == []
        assert system.trace.round_trip_counts() == {}
        assert system.trace.round_trip_count(write_op.op_id) == 0

    def test_untraced_trial_leaves_no_message_behind(self):
        import gc

        from repro.api import Cluster

        cluster = Cluster("abd", t=1).with_workload(operations=20).check("atomicity")
        cluster.run(trials=1)  # imports and caches settle
        gc.collect()
        gc.disable()  # whatever is freed below is freed by reference count
        try:
            before = self.live_messages()
            untraced = cluster.run(trials=1, keep_history=False)
            assert untraced.trials[0].trace is None
            assert self.live_messages() == before
            traced = cluster.run(trials=1, keep_history=False, keep_trace=True)
            assert len(traced.trials[0].trace.entries) == 360
            assert self.live_messages() > before
        finally:
            gc.enable()


class TestIndistinguishability:
    """The proofs' core device, pinned on one concrete pair of runs.

    A reader cannot distinguish an object that is *silent-faulty* from a
    correct object whose replies the adversary keeps in transit: in both
    partial runs the reader's reply transcript — the only thing it
    observes — is identical.  (The runs differ globally: the withheld
    run's messages exist, parked in transit; the silent run's were never
    sent.)
    """

    @staticmethod
    def _run(behaviors=None, policy=None):
        with scoped_operation_serials():
            system = RegisterSystem(
                FastRegularProtocol(), t=1, S=4, n_readers=2,
                behaviors=behaviors or {}, policy=policy,
            )
            write_op = system.write("v1", at=0)
            read_op = system.read(1, at=100)
            system.run()
            return system, write_op, read_op

    def test_silent_fault_vs_withheld_replies(self):
        silent, silent_write, silent_read = self._run(
            behaviors={object_id(1): SilentBehavior()}
        )
        withheld, held_write, held_read = self._run(
            policy=WithholdFrom([object_id(1)])
        )
        # Identical reply transcripts for the reader and the writer: the
        # two runs are indistinguishable to both clients.
        assert (
            silent.trace.client_transcript(silent_read.op_id)
            == withheld.trace.client_transcript(held_read.op_id)
        )
        assert (
            silent.trace.client_transcript(silent_write.op_id)
            == withheld.trace.client_transcript(held_write.op_id)
        )
        # Both runs complete with the same results ...
        assert silent_read.result == held_read.result == "v1"
        # ... yet they are *globally* different partial runs: the withheld
        # run has s1's replies parked in transit, the silent run has none.
        assert withheld.simulator.network.held_messages
        assert not silent.simulator.network.held_messages

    def test_distinguishable_once_the_held_reply_lands(self):
        # Releasing the withheld replies breaks the indistinguishability
        # at the wire level: s1 now appears in the delivered set.
        withheld, _, held_read = self._run(policy=WithholdFrom([object_id(1)]))
        before = {m.src for m in withheld.trace.delivered_to(held_read.client)}
        assert object_id(1) not in before
        withheld.simulator.network.release_held()
        withheld.run()
        after = {m.src for m in withheld.trace.delivered_to(held_read.client)}
        assert object_id(1) in after


class TestTraceSerialization:
    def test_event_to_dict_is_json_safe(self):
        system, _, read_op = run_abd()
        for event in system.trace.events:
            record = event.to_dict()
            json.dumps(record)  # raises on non-JSON-able leftovers
            assert record["kind"] in {"send", "deliver", "hold", "drop"}
            assert record["op_serial"] >= 1
            assert isinstance(record["payload"], dict)

    def test_dump_trace_jsonl_round_trips_structure(self):
        system, _, _ = run_abd()
        sink = io.StringIO()
        written = dump_trace_jsonl(system.trace, sink, extra={"trial": 7})
        lines = [line for line in sink.getvalue().splitlines() if line]
        assert written == len(system.trace.events) == len(lines)
        parsed = [json.loads(line) for line in lines]
        assert all(record["trial"] == 7 for record in parsed)
        assert parsed[0]["time"] == system.trace.events[0].time

    def test_payload_values_round_trip_through_codec(self):
        # Timestamps/TaggedValues in dumped payloads decode back to the
        # exact live values — the old str() rendering was lossy.
        from repro.storage.codec import unpack_value

        system, _, _ = run_abd()
        checked = 0
        for event in system.trace.events:
            record = event.to_dict()
            json.dumps(record)
            for key, live in sorted(event.message.payload.items()):
                assert unpack_value(record["payload"][key]) == live
                checked += 1
        assert checked > 0

    def test_primitive_payloads_render_exactly_as_before(self):
        # Plain scalars pass through the codec untouched, so dumps of
        # primitive-only payloads stay byte-identical to older files.
        from repro.sim.network import Message
        from repro.sim.tracing import TraceEvent
        from repro.types import object_id, writer_id

        system, write_op, _ = run_abd()
        event = TraceEvent(
            time=3,
            kind=TraceKind.SEND,
            message=Message(
                src=writer_id(), dst=object_id(1), op=write_op.op_id,
                round_no=1, tag="X", payload={"a": 1, "b": "two", "c": None},
            ),
        )
        assert event.to_dict()["payload"] == {"a": 1, "b": "two", "c": None}

    def test_unencodable_payload_values_fall_back_to_str(self):
        from repro.sim.network import Message
        from repro.sim.tracing import TraceEvent
        from repro.types import object_id, writer_id

        class Weird:
            def __str__(self):
                return "weird!"

        system, write_op, _ = run_abd()
        event = TraceEvent(
            time=3,
            kind=TraceKind.SEND,
            message=Message(
                src=writer_id(), dst=object_id(1), op=write_op.op_id,
                round_no=1, tag="X", payload={"w": Weird()},
            ),
        )
        assert event.to_dict()["payload"] == {"w": "weird!"}
