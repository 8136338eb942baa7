"""The round-stepped batched engine: equivalence with the event engine.

The batched engine's contract is *observable byte-identity*: same
histories, same structured results, same wire traces (event for event, in
order), same executed event counts, same budget truncation points — for
every registered protocol, backend, scenario, and adversarial schedule.
These tests pin that contract, plus the wave-queue mechanics and the
process-layer batch hooks it is built on.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api import Cluster, available_protocols, get_spec, sweep
from repro.errors import ConfigurationError, SimulationError
from repro.explore import HoldLink, run_schedule
from repro.explore.engine import simulate
from repro.sim.tracing import MessageTrace, TraceKind, trace_fingerprint
from repro.faults.adversary import CrashAt
from repro.faults.schedules import PlannedSchedulePolicy, PlannedSkip, WithholdFrom
from repro.registers.base import RegisterSystem
from repro.sim.batched import (
    ENGINES,
    BatchedSimulator,
    WaveQueue,
    available_engines,
    resolve_engine,
)
from repro.sim.network import (
    DeliveryPolicy,
    FifoDelivery,
    Message,
    Network,
    RandomDelivery,
    SelectiveHold,
)
from repro.sim.process import ObjectHandler, ObjectServer
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import Simulator
from repro.types import (
    fresh_operation_id,
    object_id,
    object_ids,
    reader_id,
    scoped_operation_serials,
    writer_id,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import FaultPlan, Scenario, register_scenario

#: Registry protocols that run on a single-register-style backend.
SINGLE_BACKEND_PROTOCOLS = tuple(
    name for name in available_protocols() if get_spec(name).backend != "multi-writer"
)

#: The three scenario regimes of the equivalence grid.
GRID_SCENARIOS = ("fault-free", "faulted", "schedule")


def strip_engine(payload: dict) -> dict:
    """``to_dict`` minus the engine metadata tag (the only allowed delta)."""
    payload = dict(payload)
    payload.pop("engine", None)
    return payload


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _grid_cluster(name: str, scenario: str, engine: str) -> Cluster:
    spec = get_spec(name)
    cluster = Cluster(name, t=1, n_readers=3, engine=engine)
    if scenario == "schedule":
        # An adversarial plan-addressed schedule: the write never reaches
        # objects 1 and 2 (spaced reads keep every client sequential).
        return (
            cluster
            .with_operations([("write", "v1", 0), ("read", 1, 200), ("read", 2, 400)])
            .with_schedule((1, (1, 2)))
            .check(spec.default_check())
        )
    if scenario == "faulted":
        # The strongest adversary the protocol advertises coverage for.
        fault_scenario = spec.scenarios[-1] if len(spec.scenarios) > 1 else "crash"
        cluster = cluster.with_scenario(fault_scenario)
    return (
        cluster
        .with_workload(operations=8, spacing=35)
        .check(spec.default_check())
    )


class TestEquivalenceGrid:
    """RunResult.to_dict() byte-equality across every protocol × regime."""

    @pytest.mark.parametrize("name", SINGLE_BACKEND_PROTOCOLS)
    @pytest.mark.parametrize("scenario", GRID_SCENARIOS)
    def test_event_and_batched_results_byte_identical(self, name, scenario):
        event = _grid_cluster(name, scenario, "event").run(trials=2, seed=5)
        batched = _grid_cluster(name, scenario, "batched").run(trials=2, seed=5)
        assert canonical(strip_engine(event.to_dict())) == canonical(
            strip_engine(batched.to_dict())
        )

    @pytest.mark.parametrize("name", ("abd", "fast-regular", "secret-token"))
    def test_parallel_batched_matches_serial_event(self, name):
        spec = get_spec(name)
        serial = (
            Cluster(name, t=1, n_readers=3)
            .with_scenario("fault-free")
            .with_workload(operations=6, spacing=40)
            .check(spec.default_check())
            .run(trials=3, seed=11)
        )
        parallel = (
            Cluster(name, t=1, n_readers=3, engine="batched")
            .with_scenario("fault-free")
            .with_workload(operations=6, spacing=40)
            .check(spec.default_check())
            .run(trials=3, seed=11, parallel=True)
        )
        assert canonical(strip_engine(serial.to_dict())) == canonical(
            strip_engine(parallel.to_dict())
        )

    def test_sweep_carries_engine_choice(self):
        event = sweep(("abd",), scenarios=("fault-free",), trials=2, seed=3,
                      checks=("atomicity",))
        batched = sweep(("abd",), scenarios=("fault-free",), trials=2, seed=3,
                        checks=("atomicity",), engine="batched")
        assert batched.runs[0].engine == "batched"
        assert canonical(strip_engine(event.runs[0].to_dict())) == canonical(
            strip_engine(batched.runs[0].to_dict())
        )


class TestTraceEquivalence:
    """Wire traces are byte-identical — the strongest observable artifact."""

    def _fingerprint_run(self, cluster, keys=None, plans=12):
        with scoped_operation_serials():
            backend = cluster.build_backend()
            generator = WorkloadGenerator(seed=3, n_readers=3, spacing=25, keys=keys)
            for plan in generator.plan(plans):
                backend.schedule(plan)
            events = backend.run()
            return events, trace_fingerprint(backend.trace)

    @pytest.mark.parametrize("backend,keys", [
        ("single", None),
        ("sharded", 4),
        ("sharded", 16),
    ])
    def test_wire_traces_identical(self, backend, keys):
        key_names = tuple(f"k{i}" for i in range(1, (keys or 0) + 1)) or None
        results = [
            self._fingerprint_run(
                Cluster("abd", t=1, n_readers=3, backend=backend,
                        keys=keys, engine=engine),
                keys=key_names,
            )
            for engine in ENGINES
        ]
        assert results[0] == results[1]

    @pytest.mark.parametrize("protocol", ("mwmr-fast-regular", "mw-abd"))
    def test_multi_writer_traces_identical(self, protocol):
        results = [
            self._fingerprint_run(Cluster(protocol, t=1, n_readers=3, engine=engine))
            for engine in ENGINES
        ]
        assert results[0] == results[1]

    @pytest.mark.parametrize("scenario", ("crash", "silent", "replay", "fabricate"))
    def test_faulted_traces_identical(self, scenario):
        results = [
            self._fingerprint_run(
                Cluster("fast-regular", t=1, n_readers=3, engine=engine)
                .with_scenario(scenario)
            )
            for engine in ENGINES
        ]
        assert results[0] == results[1]

    @pytest.mark.parametrize("budget", (10, 37, 64, 101))
    def test_budget_truncation_identical(self, budget):
        """An exhausted event budget cuts both engines at the same event."""
        outcomes = []
        for engine in ENGINES:
            with scoped_operation_serials():
                backend = Cluster("abd", t=1, n_readers=3, engine=engine).build_backend()
                for plan in WorkloadGenerator(seed=3, n_readers=3, spacing=25).plan(12):
                    backend.schedule(plan)
                try:
                    executed = backend.run(max_events=budget)
                    error = None
                except SimulationError as caught:
                    executed, error = None, str(caught)
                outcomes.append((executed, error, trace_fingerprint(backend.trace)))
        assert outcomes[0] == outcomes[1]


def strip_engine_deep(value):
    """``value`` without any ``"engine"`` key, at any depth."""
    if isinstance(value, dict):
        return {k: strip_engine_deep(v) for k, v in value.items() if k != "engine"}
    if isinstance(value, list):
        return [strip_engine_deep(item) for item in value]
    return value


THREE_OPERATIONS = [("write", "v1", 0), ("read", 1, 60), ("read", 2, 120)]


def _register_hold_scenario(name, policy_factory):
    register_scenario(
        name,
        lambda t: Scenario(
            name=name, fault_plan=FaultPlan("none", 0, None), policy_factory=policy_factory
        ),
        overwrite=True,
    )
    return name


def _parity_cells():
    """name → (cluster builder taking the engine, explore keywords).

    Every way a controlled schedule reaches the network: both link
    granularities, holds on the request side (the explorer's) and on the
    reply side (a base that withholds replies), a planned-skip base, fault
    triggers, a repair and a crash-recovering durable object.
    """
    def plain(engine):
        return Cluster("fast-regular", t=1, engine=engine).with_operations(THREE_OPERATIONS)

    def planned(engine):
        return plain(engine).with_schedule((1, (1,)), PlannedSkip(op=2, objects=(2,), round_no=1))

    def scenario(name, factory):
        def build(engine):
            return plain(engine).with_scenario(_register_hold_scenario(name, factory))
        return build

    def overfaulted(engine):
        return (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True, engine=engine)
            .with_faults("stale-echo", count=2)
            .with_operations([("write", "v1", 0), ("read", 1, 100)])
            .check("atomicity")
        )

    def repaired(engine):
        return (
            Cluster("abd", t=1, backend="reconfig", engine=engine)
            .with_faults("perm-crash", survive_messages=1)
            .with_repairs((1, 5))
            .with_workload(operations=2, reads=0.5, spacing=10)
        )

    def recovering(engine):
        return (
            Cluster("abd", t=1, durability="mem", engine=engine)
            .with_faults("crash-recover")
            .with_operations(THREE_OPERATIONS)
        )

    return {
        "operation": (plain, dict(max_holds=2)),
        "round": (plain, dict(max_holds=2, granularity="round")),
        "planned-base-operation": (planned, dict(max_holds=1)),
        "planned-base-round": (planned, dict(max_holds=2, granularity="round")),
        "planned-scenario": (
            scenario("parity-planned", lambda: PlannedSchedulePolicy(
                [PlannedSkip(op=1, objects=(2,))]
            )),
            dict(max_holds=1, granularity="round"),
        ),
        "reply-side-holds": (
            scenario("parity-withheld", lambda: WithholdFrom([object_id(1)])),
            dict(max_holds=2, granularity="round"),
        ),
        "fault-timing": (overfaulted, dict(max_holds=1, fault_timing=True)),
        "repair": (repaired, dict(max_holds=1, seed=7)),
        "crash-recover": (recovering, dict(max_holds=1, granularity="round")),
    }


class TestExploreParity:
    """Certify/refute outcomes and witness fingerprints match across engines."""

    @pytest.mark.parametrize("name", SINGLE_BACKEND_PROTOCOLS)
    def test_certification_parity(self, name):
        results = []
        for engine in ENGINES:
            result = (
                Cluster(name, t=1, engine=engine)
                .with_operations(THREE_OPERATIONS)
                .explore(max_holds=1)
            )
            payload = result.to_dict()
            payload.pop("engine")
            results.append(canonical(payload))
        assert results[0] == results[1]

    @pytest.mark.parametrize("cell", sorted(_parity_cells()))
    def test_controlled_schedule_grid(self, cell):
        """The whole result, every witness and every per-schedule outcome."""
        build, bounds = _parity_cells()[cell]
        results, outcomes = [], []
        for engine in ENGINES:
            cluster = build(engine)
            result = cluster.explore(**bounds)
            results.append(result)
            probe = cluster._schedule_probe(
                seed=bounds.get("seed", 0),
                granularity=bounds.get("granularity", "operation"),
            )
            free = run_schedule(probe)
            per_schedule = [free] + [
                run_schedule(probe.with_decisions((link,))) for link in free.expansions
            ]
            outcomes.append([
                (o.held_messages, o.expansions, o.trace_hash, strip_engine_deep(o.to_dict()))
                for o in per_schedule
            ])
        event, batched = results
        assert event.stats.explored > 1
        assert canonical(strip_engine_deep(event.to_dict())) == canonical(
            strip_engine_deep(batched.to_dict())
        )
        assert [strip_engine_deep(w.to_dict()) for w in event.witnesses] == [
            strip_engine_deep(w.to_dict()) for w in batched.witnesses
        ]
        assert outcomes[0] == outcomes[1]
        if cell in ("reply-side-holds", "planned-base-round"):
            # The base's own holds show up on the wire, not in the count of
            # what the explorer's links caught.
            assert outcomes[0][0][0] == 0 and len(outcomes[0]) > 1

    def test_refutation_parity(self, granularity="operation"):
        witnesses = []
        for engine in ENGINES:
            result = (
                Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True,
                        engine=engine)
                .with_faults("stale-echo", count=2)
                .with_operations([("write", "v1", 0), ("read", 1, 100)])
                .check("atomicity")
                .explore(max_holds=2, granularity=granularity)
            )
            assert result.violations >= 1
            witnesses.append(result.witnesses[0])
        event_witness, batched_witness = witnesses
        assert event_witness.decisions == batched_witness.decisions
        assert event_witness.failures == batched_witness.failures
        assert event_witness.trace_hash == batched_witness.trace_hash
        # A witness found on one engine replays byte-identically on the other.
        for witness, other in zip(witnesses, reversed(ENGINES)):
            assert witness.probe.engine != other
            moved = replace(witness, probe=replace(witness.probe, engine=other))
            assert moved.reproduces()

    def test_refutation_parity_at_round_granularity(self):
        self.test_refutation_parity(granularity="round")


class _Unshaped(DeliveryPolicy):
    """``inner``'s decisions through ``delay`` alone: no declared shape, so
    both engines serve it message by message — the reference path."""

    def __init__(self, inner):
        self.inner = inner

    def delay(self, message, now):
        return self.inner.delay(message, now)


class _HoldRepliesFromTick(SelectiveHold):
    """Overrides ``delay`` alone (a time-dependent hold, like the ablation
    benchmark's inversion schedule): the inherited shape is withdrawn."""

    def __init__(self, tick):
        super().__init__(lambda m: False)
        self.tick = tick

    def delay(self, message, now):
        if message.is_reply and now >= self.tick:
            return None
        return super().delay(message, now)


def _count_calls(monkeypatch, owner, *names):
    """Count calls of ``owner``'s methods ``names`` (still executing them)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


class TestPolicyShapeFastPath:
    """Which path a policy takes, counted — no clock involved."""

    def test_controlled_schedule_never_leaves_the_fast_path(self, monkeypatch):
        probe = (
            Cluster("fast-regular", t=1, engine="batched")
            .with_operations(THREE_OPERATIONS)
            ._schedule_probe(granularity="round")
        )
        calls = _count_calls(monkeypatch, Network, "send", "_schedule_delivery")
        for decisions in ((), (HoldLink(1, 2, 1), HoldLink(2, 1, 1))):
            outcome = simulate(probe.with_decisions(decisions)).outcome
            assert outcome.held_messages == len(decisions) and outcome.events
        assert calls == {"send": 0, "_schedule_delivery": 0}

    @pytest.mark.parametrize("policy", (
        lambda: RandomDelivery(seed=3),
        lambda: _Unshaped(FifoDelivery()),
        lambda: SelectiveHold(lambda m: m.is_reply and m.src == object_id(1), RandomDelivery(seed=3)),
        lambda: _HoldRepliesFromTick(80),
    ))
    def test_unshaped_policies_keep_the_per_message_path(self, monkeypatch, policy):
        calls = _count_calls(monkeypatch, Network, "send", "_schedule_delivery")
        with scoped_operation_serials():
            system = RegisterSystem(
                get_spec("abd").build(), t=1, engine="batched", policy=policy()
            )
            system.write("v1", at=0)
            system.read(1, at=80)
            system.run()
        kinds = [kind for _, kind, _ in system.trace.entries]
        assert calls["send"] == kinds.count(TraceKind.SEND) > 0
        assert calls["_schedule_delivery"] == calls["send"] - kinds.count(TraceKind.HOLD)

    def test_time_dependent_hold_over_a_shaped_base_is_honoured(self):
        """``delay`` overridden below the class that declared the shape: the
        replies sent from tick 80 on stay in transit on both engines."""
        traces = []
        for engine in ENGINES:
            with scoped_operation_serials():
                system = RegisterSystem(
                    get_spec("abd").build(), t=1, engine=engine, policy=_HoldRepliesFromTick(80)
                )
                system.write("v1", at=0)
                system.read(1, at=80)
                system.run()
            traces.append([(time, kind, str(m)) for time, kind, m in system.trace.entries])
            assert [kind for _, kind, _ in traces[-1]].count(TraceKind.HOLD) == 3
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("release_delay", (1, 4))
    @pytest.mark.parametrize("latency", (1, 3))
    def test_release_mid_run_matches_per_message_path(self, latency, release_delay):
        """A held reply released right after the channel's later traffic (the
        watermark clamps it at latency 3), then traffic right after a slow
        release (clamped at latency 1): same ticks, same trace, as ``send``
        would give — on both engines."""
        release_at = 10 + latency + 1  # the second read's replies are in flight

        def one_round():
            outcome = yield RoundSpec(tag="Q", payload={}, rule=ReplyRule(min_count=2))
            return sorted(outcome.replies)

        def run(engine, shaped):
            policy = SelectiveHold(
                lambda m: m.is_reply and m.src == object_id(1) and m.op.serial == 1,
                FifoDelivery(latency),
            )
            with scoped_operation_serials():
                sim = resolve_engine(engine)(
                    [ObjectServer(pid=pid, handler=_RecordingHandler()) for pid in object_ids(3)],
                    policy=policy if shaped else _Unshaped(policy),
                    trace=MessageTrace(),
                )
                for at in (0, 10, 10 + 3 * latency):
                    sim.invoke(reader_id(1), "read", one_round(), at=at)
                sim.queue.schedule(
                    release_at, lambda: sim.network.release_held(delay=release_delay)
                )
                events = sim.run()
            from_s1 = [
                (time, message.op.serial)
                for time, kind, message in sim.trace.entries
                if kind is TraceKind.DELIVER and message.src == object_id(1)
            ]
            return events, trace_fingerprint(sim.trace), from_s1

        reference = run("event", shaped=False)
        for engine in ENGINES:
            assert run(engine, shaped=True) == reference, engine
        assert run("batched", shaped=False) == reference
        ticks = {serial: time for time, serial in reference[2]}
        assert ticks[1] == max(release_at + release_delay, 10 + 2 * latency)
        assert ticks[2] <= ticks[1] <= ticks[3]


class TestWaveQueue:
    def test_schedule_preserves_order_within_a_tick(self):
        queue = WaveQueue()
        seen = []
        queue.schedule(1, lambda: seen.append("a"))
        queue.schedule(1, lambda: seen.append("b"))
        queue.schedule(0, lambda: seen.append("now"))
        assert queue.peek_time() == 0
        for entry in queue.pop_wave():
            entry()
        assert queue.now == 0 and seen == ["now"]
        for entry in queue.pop_wave():
            entry()
        assert queue.now == 1 and seen == ["now", "a", "b"]
        assert not queue and queue.peek_time() is None

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            WaveQueue().schedule(-1, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            WaveQueue().pop_wave()

    def test_len_counts_run_entries_expanded(self):
        queue = WaveQueue()
        op = fresh_operation_id(writer_id(), "write")
        messages = [
            Message(src=writer_id(), dst=object_id(i), op=op, round_no=1,
                    tag="T", payload={})
            for i in (1, 2, 3)
        ]
        queue.push_run(5, messages)
        queue.push_message(5, messages[0])
        queue.schedule(2, lambda: None)
        assert len(queue) == 5  # 3-message run + 1 single + 1 action

    def test_waves_pop_in_time_order(self):
        queue = WaveQueue()
        queue.schedule(7, lambda: "late")
        queue.schedule(2, lambda: "early")
        queue.schedule(5, lambda: "mid")
        times = []
        while queue:
            queue.pop_wave()
            times.append(queue.now)
        assert times == [2, 5, 7]


class TestEngineRegistry:
    def test_resolve_engine(self):
        assert resolve_engine("event") is Simulator
        assert resolve_engine("batched") is BatchedSimulator
        assert available_engines() == ENGINES == ("event", "batched")
        with pytest.raises(ConfigurationError):
            resolve_engine("warp")

    def test_cluster_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            Cluster("abd", engine="warp")
        with pytest.raises(ConfigurationError):
            Cluster("abd").with_engine("warp")

    def test_with_engine_is_fluent_and_immutable(self):
        base = Cluster("abd", t=1)
        batched = base.with_engine("batched")
        assert base.run(trials=1).engine == "event"
        assert batched.run(trials=1).engine == "batched"

    def test_engine_tag_only_on_non_default_results(self):
        event = Cluster("abd", t=1).check("atomicity").run(trials=1)
        batched = Cluster("abd", t=1, engine="batched").check("atomicity").run(trials=1)
        assert "engine" not in event.to_dict()
        assert batched.to_dict()["engine"] == "batched"

    def test_register_system_resolves_engine(self):
        system = RegisterSystem(get_spec("abd").build(), t=1, engine="batched")
        assert isinstance(system.simulator, BatchedSimulator)
        with pytest.raises(ConfigurationError):
            RegisterSystem(get_spec("abd").build(), t=1, engine="warp")


class _RecordingHandler(ObjectHandler):
    """Echo handler that records how its batch hook is driven."""

    def __init__(self):
        self.batches = []

    def initial_state(self):
        return {"seen": 0}

    def handle(self, state, message):
        state["seen"] += 1
        return {"seen": state["seen"]}

    def handle_batch(self, state, messages):
        self.batches.append(len(messages))
        return super().handle_batch(state, messages)


def _invocation(op, dst, tag="T"):
    return Message(src=writer_id(), dst=dst, op=op, round_no=1, tag=tag, payload={})


class TestProcessBatchHooks:
    def test_receive_batch_matches_sequential_receive(self):
        handler = _RecordingHandler()
        batched = ObjectServer(pid=object_id(1), handler=handler)
        sequential = ObjectServer(pid=object_id(1), handler=_RecordingHandler())
        op = fresh_operation_id(writer_id(), "write")
        messages = [_invocation(op, object_id(1)) for _ in range(4)]
        replies = batched.receive_batch(messages)
        expected = [sequential.receive(message) for message in messages]
        assert replies == expected
        assert batched.messages_seen == sequential.messages_seen == 4
        assert handler.batches == [4]  # one handler dispatch for the wave

    def test_faulty_reply_batch_preserves_per_message_counters(self):
        """CrashAt crossing its threshold inside one wave behaves as if
        the messages had been dispatched one event at a time."""
        op = fresh_operation_id(writer_id(), "write")
        messages = [_invocation(op, object_id(1)) for _ in range(5)]
        batched = ObjectServer(
            pid=object_id(1), handler=_RecordingHandler(),
            behavior=CrashAt(survive_messages=3),
        )
        sequential = ObjectServer(
            pid=object_id(1), handler=_RecordingHandler(),
            behavior=CrashAt(survive_messages=3),
        )
        replies = batched.receive_batch(messages)
        expected = [sequential.receive(message) for message in messages]
        assert replies == expected
        assert [reply is None for reply in replies] == [False] * 3 + [True] * 2

    def test_concurrent_rounds_take_the_grouped_path(self):
        """Two same-tick broadcasts reach each object as one batch call."""
        calls = []
        original = ObjectServer.receive_batch

        def spy(self, messages):
            calls.append((self.pid, len(messages)))
            return original(self, messages)

        system = RegisterSystem(
            get_spec("abd").build(n_readers=2), t=1, n_readers=2, engine="batched"
        )
        system.read(1, at=0)
        system.read(2, at=0)
        try:
            ObjectServer.receive_batch = spy
            system.run()
        finally:
            ObjectServer.receive_batch = original
        # Both concurrent reads broadcast at the same tick: each object gets
        # its two invocations through a single receive_batch dispatch, once
        # per round of the two-round ABD read.
        assert calls and all(count == 2 for _, count in calls)
        assert len(calls) == 2 * system.ctx.S
        assert {pid for pid, _ in calls} == set(system.simulator.objects)

    def test_concurrent_rounds_match_event_engine(self):
        fingerprints = []
        for engine in ENGINES:
            with scoped_operation_serials():
                system = RegisterSystem(
                    get_spec("abd").build(n_readers=3), t=1, n_readers=3, engine=engine
                )
                system.write("v1", at=0)
                system.read(1, at=0)
                system.read(2, at=0)
                system.read(3, at=0)
                events = system.run()
                fingerprints.append((events, trace_fingerprint(system.trace)))
        assert fingerprints[0] == fingerprints[1]


class TestEngineJsonlMetadata:
    def test_jsonl_rows_key_on_engine(self, tmp_path, capsys):
        from repro.__main__ import main

        event_path = tmp_path / "event.jsonl"
        batched_path = tmp_path / "batched.jsonl"
        assert main(["run", "--protocol", "abd", "--trials", "1",
                     "--jsonl", str(event_path)]) == 0
        assert main(["run", "--protocol", "abd", "--engine", "batched",
                     "--trials", "1", "--jsonl", str(batched_path)]) == 0
        event_row = json.loads(event_path.read_text().strip())
        batched_row = json.loads(batched_path.read_text().strip())
        assert "engine" not in event_row
        assert batched_row["engine"] == "batched"
        # Identical results apart from the tag…
        assert canonical(strip_engine(event_row)) == canonical(strip_engine(batched_row))
        # …but compare treats engines as distinct configurations.
        capsys.readouterr()
        assert main(["compare", str(event_path), str(batched_path)]) == 0
        assert "compared 0 run(s)" in capsys.readouterr().out
