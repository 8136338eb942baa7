"""Tests for message tracing, its serialization and its fingerprint, and
for who keeps the wire log.

A :class:`~repro.sim.tracing.MessageTrace` keeps its round fold always and
its log only where something reads it: a plain ``Cluster.run`` trial and a
search schedule drop the log after the build (:meth:`MessageTrace.drop_log`);
``Cluster.build_backend()``, ``run_schedule`` (witnesses, replay) and
observed or ``keep_trace`` trials keep it.  Every reader of an unlogged
trace raises instead of hashing or deriving an empty log, and every
configuration of the grid below gives the same ``to_dict()`` bytes and round
folds with the log kept as with it dropped.
"""

import io
import json
from collections.abc import Mapping

import pytest

from repro.analysis.metrics import measure_backend_latency
from repro.api import Cluster, available_protocols, sweep
from repro.api.registry import get_spec
from repro.errors import SimulationError
from repro.explore.engine import run_schedule, simulate
from repro.faults.adversary import SilentBehavior
from repro.faults.schedules import WithholdFrom
from repro.obs import derive_metrics, derive_spans
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.sim.network import Message
from repro.sim.tracing import (
    MessageTrace,
    TraceKind,
    _freeze as freeze_payload,
    dump_trace_jsonl,
    trace_fingerprint,
)
from repro.types import (
    fresh_operation_id, object_id, reader_id, scoped_operation_serials, writer_id,
)
from repro.workloads.generator import WorkloadGenerator


def run_abd():
    system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
    write_op = system.write("a", at=0)
    read_op = system.read(1, at=50)
    system.run()
    return system, write_op, read_op


class TestTraceQueries:
    def test_round_trip_counts_match_engine(self):
        system, write_op, read_op = run_abd()
        counts = system.trace.round_trip_counts()
        assert counts[write_op.op_id] == 1
        assert counts[read_op.op_id] == 2

    def test_event_kinds_recorded(self):
        system, _, _ = run_abd()
        kinds = {event.kind for event in system.trace.events}
        assert TraceKind.SEND in kinds
        assert TraceKind.DELIVER in kinds


def _trial_long():
    return (
        Cluster("atomic-fast-regular", t=1, n_readers=2)
        .with_faults("stale-echo", count=1)
        .with_workload(reads=0.5, spacing=40, operations=40)
        .check("atomicity")
        .run(trials=1, seed=11, keep_history=False)
    )


def _sweep_first_scenario(name):
    def call():
        spec = get_spec(name)
        return sweep([name], scenarios=spec.scenarios[:1], checks=(spec.default_check(),))

    return call


def _run(protocol, keep_trace=False, faults=(), **options):
    def call():
        cluster = Cluster(protocol, t=1, **options)
        for fault, count in faults:
            cluster = cluster.with_faults(fault, count=count)
        return cluster.with_workload(operations=20, reads=0.3, spacing=30).run(
            trials=2, keep_trace=keep_trace
        )

    return call


def _reconfig_churn():
    return (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True, durability="mem")
        .with_faults("rolling-replace", count=3, base=4, stagger=8)
        .with_repairs((1, 40), (2, 110), (3, 180))
        .with_workload(operations=24, reads=0.2, spacing=30)
        .check("atomicity")
        .run(trials=2)
    )


def _reconfig_blocked():
    """Two of three objects silent: every operation, the repair included, is
    still suspended mid-generator — holding its system — when the trial ends."""
    result = (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
        .with_faults("silent", count=2)
        .with_repairs((1, 40))
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
        .run(trials=1)
    )
    assert result.trials[0].incomplete == 3
    return result


def _explore(max_events=None):
    def call():
        bounds = {} if max_events is None else {"max_events": max_events}
        return Cluster("fast-regular", t=1).with_operations(
            [("write", "v1", 0), ("read", 1, 120), ("read", 2, 240)]
        ).explore(max_holds=1, granularity="round", **bounds)

    return call


def _refute():
    result = (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=2)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
        .check("atomicity")
        .explore(max_holds=2)
    )
    assert result.witnesses[0].reproduces()
    return result


def _frontier():
    return (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=1)
        .with_faults("timed", count=1, inner="stale-echo", at=99)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
        .frontier(max_holds=1, max_schedules=3000)
    )


def _acyclic_calls():
    calls = {f"sweep-{name}": _sweep_first_scenario(name) for name in available_protocols()}
    calls.update({
        "trial_long": _trial_long,
        "sharded": _run("abd", backend="sharded", keys=("a", "b")),
        "reconfig-churn-mem": _reconfig_churn,
        "reconfig-blocked": _reconfig_blocked,
        "dir-crash-recover-observe": _run(
            "abd", n_readers=3, durability="dir", observe=True, faults=[("crash-recover", 1)]
        ),
        "keep_trace": _run("abd", keep_trace=True),
        "k-atomic(2)": _run("abd", consistency="k-atomic(2)"),
        "mw-abd": _run("mw-abd", backend="multi-writer", n_writers=2),
        "explore-certify": _explore(),
        "explore-truncated": _explore(max_events=30),
        "explore-refute-witness": _refute,
        "frontier": _frontier,
    })
    return calls


#: One facade call per configuration whose system graph differs: the
#: pinned "no cyclic garbage" and log-on ≡ log-off grid of
#: :class:`TestTraceRelease`.
ACYCLIC_CALLS = _acyclic_calls()


def scanned_rounds(trace):
    """The round fold recomputed by one scan of the log."""
    rounds = {}
    for _, kind, message in trace.entries:
        if kind is TraceKind.SEND and not message.is_reply:
            rounds[message.op] = max(rounds.get(message.op, message.round_no), message.round_no)
    return rounds


def without_wall_clock(payload):
    """``payload`` minus its ``elapsed_s`` host times (observed trials)."""
    if isinstance(payload, dict):
        return {k: without_wall_clock(v) for k, v in payload.items() if k != "elapsed_s"}
    if isinstance(payload, list):
        return [without_wall_clock(v) for v in payload]
    return payload


class TestTraceRelease:
    """A finished call frees its systems — wire log included — by reference
    count, without the cyclic collector."""

    @staticmethod
    def live_engine_objects():
        """Live systems, engine parts, messages and generators: what a
        finished call must not leave for the collector."""
        import gc
        import types

        from repro.registers.base import SystemBackend
        from repro.sim.network import Message, Network
        from repro.sim.process import ObjectServer
        from repro.sim.simulator import ClientOperation, Simulator
        from repro.sim.tracing import MessageTrace

        kinds = (
            SystemBackend, Simulator, Network, ObjectServer, ClientOperation,
            MessageTrace, Message, types.GeneratorType,
        )
        return sum(1 for obj in gc.get_objects() if isinstance(obj, kinds))

    @pytest.mark.parametrize("call", sorted(ACYCLIC_CALLS))
    def test_a_finished_call_leaves_no_cyclic_garbage(self, call, monkeypatch):
        """Everything a facade call allocates is freed by reference count:
        with the collector off, no engine object outlives the call, and a
        collection then finds nothing.  (The census is what sees a cycle
        through a suspended generator: the collector finalizes the
        generator, which breaks the cycle, so its count stays 0.)  The
        warm-up call absorbs what importing and first use leave behind.

        The warm-up also runs with ``drop_log`` patched to a no-op, so every
        trace keeps its log, and the measured call runs as shipped: both
        give the same ``to_dict()`` bytes and the same round folds, and each
        logged fold equals a scan of its log."""
        import gc

        folds = [[]]  # per call, every fold accounting read, in order
        fold = MessageTrace.round_trip_counts

        def recording(trace):
            counts = fold(trace)
            if trace.log is not None:
                assert counts == scanned_rounds(trace)
            folds[-1].append(sorted((str(op), rounds) for op, rounds in counts.items()))
            return counts

        def payload(result):
            return json.dumps(without_wall_clock(result.to_dict()), sort_keys=True)

        monkeypatch.setattr(MessageTrace, "round_trip_counts", recording)
        with monkeypatch.context() as patched:
            patched.setattr(MessageTrace, "drop_log", lambda trace: None)
            kept = payload(ACYCLIC_CALLS[call]())
        folds.append([])
        gc.collect()
        gc.disable()
        try:
            before = self.live_engine_objects()
            measured = payload(ACYCLIC_CALLS[call]())
            assert self.live_engine_objects() == before
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert measured == kept
        assert folds[0] == folds[1]
        if not call.startswith(("explore", "frontier")):
            assert folds[0], "a trial accounts its rounds from the fold"

    #: Configuration → writers, for the retention census below.
    RETAINING = {
        "atomic-fast-regular+stale-echo": (
            lambda: Cluster("atomic-fast-regular", t=1, n_readers=2)
            .with_faults("stale-echo", count=1),
            1,
        ),
        "mw-abd": (
            lambda: Cluster("mw-abd", t=1, n_readers=2, backend="multi-writer", n_writers=2),
            2,
        ),
    }

    @pytest.mark.parametrize("config", sorted(RETAINING))
    def test_a_drained_trial_holds_its_operations_not_its_traffic(self, config):
        """A terminated round keeps its summary, not its spec and replies:
        tracked objects alive after the drain grow by at most 10 per added
        operation (they grew by 82 while every round kept its MULTI
        payload, reply rule and reply set until ``close()``)."""
        import gc

        cluster, writers = self.RETAINING[config]

        def tracked_after_drain(operations):
            backend = cluster().build_backend()
            backend.trace.drop_log()
            with scoped_operation_serials():
                for plan in WorkloadGenerator(
                    seed=11, n_readers=2, n_writers=writers, read_fraction=0.5, spacing=40
                ).plan(operations):
                    backend.schedule(plan)
                backend.run()
            try:
                gc.collect()
                tracked = len(gc.get_objects())
                operations = backend.simulator.operations
                rounds = [record for op in operations for record in op.rounds]
                assert rounds and all(record.terminated for record in rounds)
                assert all(
                    record.spec is None and record.replies is None for record in rounds
                )
                assert all(op.generator is None for op in operations)
            finally:
                backend.close()
            return tracked

        tracked_after_drain(40)  # imports and caches settle
        small, large = tracked_after_drain(320), tracked_after_drain(1280)
        assert (large - small) / (1280 - 320) <= 10, (small, large)

    def test_untraced_trial_leaves_no_message_behind(self):
        import gc

        from repro.api import Cluster

        cluster = Cluster("abd", t=1).with_workload(operations=20).check("atomicity")
        cluster.run(trials=1)  # imports and caches settle
        gc.collect()
        gc.disable()  # whatever is freed below is freed by reference count
        try:
            before = self.live_engine_objects()
            untraced = cluster.run(trials=1, keep_history=False)
            assert untraced.trials[0].trace is None
            assert self.live_engine_objects() == before
            traced = cluster.run(trials=1, keep_history=False, keep_trace=True)
            assert len(traced.trials[0].trace.entries) == 360
            assert self.live_engine_objects() > before
        finally:
            gc.enable()


# --------------------------------------------------------------------- #
# The wire log: unlogged traces refuse to be read
# --------------------------------------------------------------------- #

UNLOGGED = "wire log was switched off"


def logged(trace):
    try:
        trace.entries
    except SimulationError:
        return False
    return True


def unlogged_abd():
    """An ABD system whose log was dropped after the build, then run."""
    with scoped_operation_serials():
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        system.trace.drop_log()
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
    return system


class TestAnUnloggedTraceFailsLoudly:
    READERS = {
        "entries": lambda system: system.trace.entries,
        "events": lambda system: system.trace.events,
        "trace_fingerprint": lambda system: trace_fingerprint(system.trace),
        "dump_trace_jsonl": lambda system: dump_trace_jsonl(system.trace, io.StringIO()),
        "derive_spans": lambda system: derive_spans(system.simulator, system.trace),
        "derive_metrics": lambda system: derive_metrics([], system.trace),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_every_reader_of_the_log_raises(self, reader):
        system = unlogged_abd()
        with pytest.raises(SimulationError, match=UNLOGGED):
            self.READERS[reader](system)

    def test_the_fold_survives_the_drop(self):
        system = unlogged_abd()
        write, read = system.simulator.operations
        assert system.trace.round_trip_counts() == {write.op_id: 1, read.op_id: 2}

    def test_dropping_discards_what_was_logged(self):
        trace = MessageTrace()
        message = Message(writer_id(), object_id(1), None, 1, "W", {})
        trace.record_send(0, message)
        trace.events  # cached view
        trace.drop_log()
        for record in (trace.record_send, trace.record_hold, trace.record_delivery,
                       trace.record_drop):
            record(1, message)
        trace.record_send_batch(1, [message])
        with pytest.raises(SimulationError, match=UNLOGGED):
            trace.events
        assert trace.round_trip_counts() == {None: 1}

    @pytest.mark.parametrize("drop", [False, True])
    def test_an_empty_broadcast_records_nothing(self, drop):
        trace = MessageTrace()
        if drop:
            trace.drop_log()
        trace.record_send_batch(0, [])
        assert trace.round_trip_counts() == {}
        assert drop or trace.entries == []

    def test_replies_never_raise_the_fold(self):
        trace = MessageTrace()
        op = fresh_operation_id(reader_id(1), "read")
        trace.record_send(0, Message(reader_id(1), object_id(1), op, 1, "Q", {}))
        trace.record_send(1, Message(object_id(1), reader_id(1), op, 5, "Q", {}, True))
        trace.record_send_batch(2, [Message(object_id(2), reader_id(1), op, 7, "Q", {}, True)])
        trace.record_send_batch(3, [Message(reader_id(1), object_id(2), op, 0, "Q", {})])
        assert trace.round_trip_counts() == {op: 1} == scanned_rounds(trace)


# --------------------------------------------------------------------- #
# Who keeps the log
# --------------------------------------------------------------------- #


@pytest.fixture
def traces(monkeypatch):
    """Every trace built while the test runs that saw a client send."""
    built = []
    init = MessageTrace.__init__

    def recording(trace):
        init(trace)
        built.append(trace)

    monkeypatch.setattr(MessageTrace, "__init__", recording)

    def used():
        found = [trace for trace in built if trace.round_trip_counts()]
        assert found
        built.clear()
        return found

    return used


def abd(**options):
    return Cluster("abd", t=1, **options).with_workload(operations=12, spacing=30)


def probe():
    return abd().with_operations([("write", "v1", 0), ("read", 1, 40)])._schedule_probe()


class TestWhoKeepsTheLog:
    def test_a_plain_trial_and_a_search_schedule_drop_it(self, traces):
        abd().run(trials=2)
        assert not any(map(logged, traces()))
        simulate(probe())
        assert not any(map(logged, traces()))

    def test_built_backends_replays_and_read_trials_keep_it(self, traces):
        cluster = abd()
        with scoped_operation_serials():
            backend = cluster.build_backend()
            measure_backend_latency(backend, cluster._plans(0))
            backend.close()
        assert all(map(logged, traces()))
        run_schedule(probe())
        assert all(map(logged, traces()))
        abd(observe=True).run(trials=1)
        assert all(map(logged, traces()))
        kept = abd().run(trials=1, keep_trace=True)
        assert all(map(logged, traces()))
        assert kept.trials[0].trace.entries


def transcript(trace, op_id):
    """The replies ``op_id``'s client received, as an order-insensitive
    tuple: what a client can compare two runs by."""
    return tuple(sorted(
        (m.round_no, m.src, m.tag, freeze_payload(m.payload))
        for _, kind, m in trace.entries
        if kind is TraceKind.DELIVER and m.is_reply and m.op == op_id
    ))


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
        assert transcript(silent.trace, silent_read.op_id) == transcript(
            withheld.trace, held_read.op_id
        )
        assert transcript(silent.trace, silent_write.op_id) == transcript(
            withheld.trace, held_write.op_id
        )
        # Both runs complete with the same results ...
        assert silent_read.result == held_read.result == "v1"
        # ... yet they are *globally* different partial runs: the withheld
        # run has s1's replies parked in transit, the silent run has none.
        held = [m for _, kind, m in withheld.trace.entries if kind is TraceKind.HOLD]
        assert held and all(m.src == object_id(1) for m in held)
        assert all(kind is not TraceKind.HOLD for _, kind, _ in silent.trace.entries)


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
        from repro.storage.codec import decode_state

        system, _, _ = run_abd()
        checked = 0
        for event in system.trace.events:
            record = event.to_dict()
            json.dumps(record)
            for key, live in sorted(event.message.payload.items()):
                assert decode_state(json.dumps(record["payload"][key]).encode()) == live
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
# The fingerprint: its bytes pinned, its payload freeze against the plain one
# --------------------------------------------------------------------- #

# ``trace_fingerprint`` renders one ``repr`` per entry, the form every
# committed ``trace_hash`` was computed from; these are the digests that
# form gives the traces below (the witness corpus pins it on real refutations).
EMPTY_TRACE = "e3b0c44298fc1c149afbf4c8"  # sha256 of no bytes
HAND_BUILT_TRACE = "2fe27923da422263dbcbeb32"
HELD_REPLY_AND_DROP_TRACE = "82d675c9a41b3b4d4fe70456"
#: sha256 over the fingerprints of the 45 sweep cells, in ``_sweep_cells`` order.
SWEEP_TRACES = "ddac2d72b4bcf35309878ac4"
#: The free, held, truncated and repaired schedules of the replay-path test.
SCHEDULE_TRACES = [
    "964ed70d2ef193baf897d6e4", "9ccbc287216cbbaffdbb4906",
    "2b02147ed56a175fbb2d45bf", "3bf00609f4e74fa59029eb35",
]


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
        import hashlib

        from repro.api import Cluster
        from repro.sim.tracing import trace_fingerprint

        cells = _sweep_cells()
        assert len(cells) == 45
        digest = hashlib.sha256()
        for name, scenario in cells:
            trial = (
                Cluster(name, t=1, n_readers=2)
                .with_scenario(scenario)
                .with_workload(spacing=150, operations=10)
                .run(trials=1, seed=17, keep_trace=True)
                .trials[0]
            )
            assert trial.trace.entries, (name, scenario)
            for _, _, message in trial.trace.entries:
                assert freeze_payload(message.payload) == _freeze(message.payload)
            digest.update(trace_fingerprint(trial.trace).encode())
        assert digest.hexdigest()[:24] == SWEEP_TRACES

    def test_held_dropped_repair_and_truncated_schedules(self, monkeypatch):
        """On the witness / replay path, the one that still renders it: a
        witness renders its fingerprint once when it is made and once per
        replay, over traces with every kind a schedule leaves."""
        from repro.api import Cluster
        from repro.axes import SearchBounds
        from repro.explore import FaultTrigger, HoldLink, ScheduleWitness
        from repro.explore import engine as explore_engine
        from repro.sim import tracing

        seen = []

        def recording(trace):
            seen.append({kind for _, kind, _ in trace.entries})
            return tracing.trace_fingerprint(trace)

        monkeypatch.setattr(explore_engine, "trace_fingerprint", recording)
        stack = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=1)
            .with_faults("timed", count=1, inner="stale-echo", at=99)
            .with_operations([("write", "v1", 0), ("read", 1, 100), ("read", 1, 130)])
        )
        repaired = (
            Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
            .with_faults("rolling-replace", count=3, base=4, stagger=8)
            .with_repairs((1, 40), (2, 110), (3, 180))
            .with_workload(operations=9, reads=0.5, spacing=30)
        )
        probe = stack._schedule_probe()
        held_set = (HoldLink(op=2, obj=3), HoldLink(op=2, obj=4), FaultTrigger(obj=2, at=0))
        free = ScheduleWitness.from_exploration(probe, (), ())
        assert TraceKind.HOLD not in seen[-1]
        held = ScheduleWitness.from_exploration(probe, held_set, held_set)
        assert TraceKind.HOLD in seen[-1]
        free_run = free.replay()
        cut = ScheduleWitness.from_exploration(
            stack._schedule_probe(SearchBounds(max_events=free_run.events // 2)), (), ()
        )
        fixed = ScheduleWitness.from_exploration(repaired._schedule_probe(seed=3), (), ())
        assert len(seen) == 5  # four witnesses made, one replay
        witnesses = [free, held, cut, fixed]
        assert [w.trace_hash for w in witnesses] == SCHEDULE_TRACES
        replays = [w.replay() for w in witnesses]
        assert all(w.reproduces(r) for w, r in zip(witnesses, replays))
        assert len(seen) == 9
        # The held read never returns, so the reader's next plan is dropped.
        assert replays[1].held_messages and replays[1].dropped == 1
        assert replays[2].truncated and replays[3].completed

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
            assert trace_fingerprint(system.trace) == HELD_REPLY_AND_DROP_TRACE

    def test_empty_trace(self):
        from repro.sim.tracing import trace_fingerprint

        assert trace_fingerprint(MessageTrace()) == EMPTY_TRACE

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
        assert tracing.trace_fingerprint(trace) == HAND_BUILT_TRACE
        for _, _, message in trace.entries:
            assert tracing._freeze(message.payload) == _freeze(message.payload)
