"""Tests for message tracing and reply transcripts."""

import io
import json
from collections.abc import Mapping

import pytest

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


# --------------------------------------------------------------------- #
# The fingerprint, against the rendering it replaced
# --------------------------------------------------------------------- #


def _freeze(payload):
    """``repro.sim.tracing._freeze`` as it was before it tested exact types."""
    items = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, Mapping):
            value = _freeze(value)
        elif isinstance(value, (list, set)):
            value = tuple(sorted(map(repr, value)))
        items.append((key, value))
    return tuple(items)


def fingerprint_oracle(trace):
    """``trace_fingerprint`` as it was when it rendered every entry whole:
    the bytes every committed ``trace_hash`` was computed from."""
    import hashlib

    digest = hashlib.sha256()
    for time, kind, message in trace.entries:
        digest.update(repr((
            time,
            kind.value,
            str(message.src),
            str(message.dst),
            message.op.serial,
            message.op.kind,
            str(message.op.client),
            message.round_no,
            message.tag,
            message.is_reply,
            _freeze(message.payload),
        )).encode("utf-8", "backslashreplace"))
    return digest.hexdigest()[:24]


class _Proxy(Mapping):
    """A Mapping that is not a dict."""

    def __init__(self, data):
        self._data = data

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


class _Rows(list):
    """A list that is not exactly ``list``."""


class _Raw:
    """A value whose repr carries a lone surrogate past ``repr``'s own
    escaping, so only the encoder's ``backslashreplace`` handles it."""

    def __repr__(self):
        return "raw\ud800"


def _sweep_cells():
    from repro.api import available_protocols
    from repro.api.registry import get_spec

    return [
        (name, scenario)
        for name in available_protocols()
        for scenario in get_spec(name).scenarios
    ]


class TestFingerprintDifferential:
    def test_every_protocol_and_advertised_scenario(self):
        from repro.api import Cluster
        from repro.sim.tracing import trace_fingerprint

        cells = _sweep_cells()
        assert len(cells) >= 45
        for name, scenario in cells:
            trial = (
                Cluster(name, t=1, n_readers=2)
                .with_scenario(scenario)
                .with_workload(spacing=150, operations=10)
                .run(trials=1, seed=17, keep_trace=True)
                .trials[0]
            )
            assert trial.trace.entries, (name, scenario)
            assert trace_fingerprint(trial.trace) == fingerprint_oracle(trial.trace), (
                name, scenario,
            )

    def test_held_dropped_repair_and_truncated_schedules(self, monkeypatch):
        """Through ``run_schedule`` itself: the traces the explorer hashes."""
        from repro.api import Cluster
        from repro.axes import SearchBounds
        from repro.explore import FaultTrigger, HoldLink, engine as explore_engine
        from repro.sim import tracing

        seen = []

        def checked(trace):
            digest = tracing.trace_fingerprint(trace)
            assert digest == fingerprint_oracle(trace)
            seen.append({kind for _, kind, _ in trace.entries})
            return digest

        monkeypatch.setattr(explore_engine, "trace_fingerprint", checked)
        stack = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=1)
            .with_faults("timed", count=1, inner="stale-echo", at=99)
            .with_operations([("write", "v1", 0), ("read", 1, 100), ("read", 1, 130)])
        )
        probe = stack._schedule_probe()
        free = explore_engine.run_schedule(probe)
        assert TraceKind.HOLD not in seen[-1]
        held = explore_engine.run_schedule(probe.with_decisions(
            (HoldLink(op=2, obj=3), HoldLink(op=2, obj=4), FaultTrigger(obj=2, at=0))
        ))
        # The held read never returns, so the reader's next plan is dropped.
        assert TraceKind.HOLD in seen[-1] and held.held_messages and held.dropped == 1
        cut = explore_engine.run_schedule(
            stack._schedule_probe(SearchBounds(max_events=free.events // 2))
        )
        assert cut.truncated and cut.trace_hash != free.trace_hash
        repaired = (
            Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
            .with_faults("rolling-replace", count=3, base=4, stagger=8)
            .with_repairs((1, 40), (2, 110), (3, 180))
            .with_workload(operations=9, reads=0.5, spacing=30)
        )
        outcome = explore_engine.run_schedule(repaired._schedule_probe(seed=3))
        assert outcome.completed and len(seen) == 4

    def test_held_reply_and_client_dropped_traces(self):
        """All four kinds from a live run: s1's replies stay in transit, and
        the reader crashes while its first round is on the wire, so what the
        other objects answer is dropped."""
        from repro.sim.tracing import trace_fingerprint

        with scoped_operation_serials():
            system = RegisterSystem(
                FastRegularProtocol(), t=1, S=4, n_readers=2,
                policy=WithholdFrom([object_id(1)]),
            )
            system.write("v1", at=0)
            read_op = system.read(1, at=100)
            simulator = system.simulator
            simulator.queue.schedule(101, lambda: simulator.abort(read_op))
            system.run()
            entries = system.trace.entries
            assert {kind for _, kind, _ in entries} == set(TraceKind)
            assert any(kind is TraceKind.HOLD and m.is_reply for _, kind, m in entries)
            assert any(
                kind is TraceKind.DROP and m.dst == read_op.client for _, kind, m in entries
            )
            assert trace_fingerprint(system.trace) == fingerprint_oracle(system.trace)
            # The released replies land on the longer log: rendered afresh.
            before = len(entries)
            simulator.network.release_held()
            system.run()
            assert len(system.trace.entries) > before
            assert trace_fingerprint(system.trace) == fingerprint_oracle(system.trace)

    def test_empty_trace(self):
        from repro.sim.tracing import trace_fingerprint

        assert trace_fingerprint(MessageTrace()) == fingerprint_oracle(MessageTrace())

    @staticmethod
    def _hand_built():
        import types
        from collections import OrderedDict

        from repro.sim.network import Message
        from repro.types import OperationId, reader_id, writer_id

        op = OperationId(client=reader_id(1), kind="read", serial=7)
        payloads = [
            {},
            {"b": 1, "a": None, "c": True, "d": 2.5},
            {"nested": {"z": {"y": [3, 1, 2]}, "a": {"s": {"q", "p"}}}},
            {"proxy": _Proxy({"k": [1, 2], "j": _Proxy({"i": 0})})},
            {"readonly": types.MappingProxyType({"b": 2, "a": {"x": 1}})},
            {"ordered": OrderedDict([("z", 1), ("a", [2, 1])])},
            {"rows": _Rows([2, 1]), "frozen": frozenset({1}), "pair": (2, 1)},
            {"text": "caf\u00e9 \u2192 \u22a5", "lone": "\ud800 and \udfff"},
            {"raw": _Raw(), "in": [_Raw()], "under": {"deep": _Raw()}},
            _Proxy({"top": {"level": [1]}}),
        ]
        trace = MessageTrace()
        for index, payload in enumerate(payloads):
            message = Message(
                src=reader_id(1) if index % 2 else writer_id(), dst=object_id(index + 1),
                op=op, round_no=index, tag=f"T{index}\u00e9", payload=payload,
                is_reply=bool(index % 2),
            )
            trace.record_send(index, message)
            if index % 3 == 0:
                trace.record_hold(index, message)
            trace.record_delivery(index + 1, message)
            if index % 4 == 0:
                trace.record_drop(index + 2, message)
        # An equal message that is another object is rendered on its own.
        twin = Message(src=writer_id(), dst=object_id(1), op=op, round_no=0,
                       tag="T0\u00e9", payload={})
        trace.record_send(99, twin)
        return trace

    def test_hand_built_payloads(self):
        from repro.sim import tracing

        trace = self._hand_built()
        assert {kind for _, kind, _ in trace.entries} == set(TraceKind)
        with pytest.raises(UnicodeEncodeError):
            repr([message.payload for _, _, message in trace.entries]).encode("utf-8")
        assert tracing.trace_fingerprint(trace) == fingerprint_oracle(trace)
        for _, _, message in trace.entries:
            assert tracing._freeze(message.payload) == _freeze(message.payload)

    def test_payload_is_frozen_once_per_message(self, monkeypatch):
        from repro.sim import tracing

        real, depth, top = tracing._freeze, 0, 0

        def counting(payload):
            nonlocal depth, top
            top += depth == 0
            depth += 1
            try:
                return real(payload)
            finally:
                depth -= 1

        monkeypatch.setattr(tracing, "_freeze", counting)
        system, _, _ = run_abd()
        for trace in (system.trace, self._hand_built()):
            top = 0
            entries = trace.entries
            messages = {id(message) for _, _, message in entries}
            assert tracing.trace_fingerprint(trace) == fingerprint_oracle(trace)
            assert top == len(messages) < len(entries)
