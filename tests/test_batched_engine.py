"""The production engine against its reference: the differential grid.

Every system is built on :class:`BatchedSimulator`; the per-message
:class:`Simulator` is the oracle.  The contract is *observable
byte-identity*: same histories (step numbers included), same structured
results (whole ``to_dict()``), same wire traces (event for event, in
order), same executed event counts, same budget truncation points — for
every registered protocol, backend, scenario, fault behaviour, policy shape
and held-link schedule.  The ``reference_engine`` fixture
(``tests/conftest.py``) is how a cell runs on the oracle.  These tests pin
that contract — down to the global order in which object handlers are
called — plus the wave-queue mechanics the production engine is built on.
"""

from __future__ import annotations

import json
from contextlib import closing

import pytest

from repro.api import Cluster, available_backends, available_protocols, get_spec, sweep
from repro.api.cluster import build_backend
from repro.api.faults import available_faults
from repro.axes import SearchBounds
from repro.errors import SimulationError
from repro.explore import HoldLink, run_schedule
from repro.explore.engine import simulate
from repro.sim.tracing import TraceKind, trace_fingerprint
from repro.faults.adversary import CrashAt
from repro.faults.schedules import WithholdFrom
from repro.registers.base import RegisterSystem
from repro.sim.batched import BatchedSimulator, WaveQueue
from repro.sim.network import DeliveryPolicy, FifoDelivery, Network, SelectiveHold
from repro.sim.process import ObjectHandler
from repro.sim.simulator import Simulator
from repro.types import object_id, scoped_operation_serials
from repro.workloads.generator import OperationPlan

from helpers import RandomDelivery, ShapedHold

#: Registry protocols that run on a single-register-style backend.
SINGLE_BACKEND_PROTOCOLS = tuple(
    name for name in available_protocols() if get_spec(name).backend != "multi-writer"
)

#: The three scenario regimes of the equivalence grid.
GRID_SCENARIOS = ("fault-free", "faulted", "schedule")


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _grid_payload(name: str, scenario: str) -> str:
    """The byte-compared artifact of one grid cell: a two-trial run's
    ``to_dict()``, or — for the ``schedule`` regime — the outcome of one
    held-link schedule, wire fingerprint included."""
    spec = get_spec(name)
    cluster = Cluster(name, t=1, n_readers=3)
    if scenario == "schedule":
        # The write never reaches objects 1 and 2 (spaced reads keep every
        # client sequential).
        probe = (
            cluster
            .with_operations([("write", "v1", 0), ("read", 1, 200), ("read", 2, 400)])
            .check(spec.default_check())
            ._schedule_probe()
        )
        outcome = run_schedule(probe.with_decisions((HoldLink(1, 1), HoldLink(1, 2))))
        assert outcome.held_messages == 2
        return repr(outcome)
    if scenario == "faulted":
        # The strongest adversary the protocol advertises coverage for.
        fault_scenario = spec.scenarios[-1] if len(spec.scenarios) > 1 else "crash"
        cluster = cluster.with_scenario(fault_scenario)
    return canonical(
        cluster
        .with_workload(operations=8, spacing=35)
        .check(spec.default_check())
        .run(trials=2, seed=5)
        .to_dict()
    )


class TestEquivalenceGrid:
    """RunResult.to_dict() byte-equality across every protocol × regime."""

    def test_the_fixture_swaps_the_one_name_assemble_constructs(self, reference_engine):
        def built():
            return type(RegisterSystem(get_spec("abd").build(), t=1).simulator)

        assert built() is BatchedSimulator
        with reference_engine():
            assert built() is Simulator
            sharded = Cluster("abd", backend="sharded", keys=2).build_backend()
            assert type(sharded.simulator) is Simulator
        assert built() is BatchedSimulator

    @pytest.mark.parametrize("name", available_protocols())
    @pytest.mark.parametrize("scenario", GRID_SCENARIOS)
    def test_production_and_reference_results_byte_identical(
        self, name, scenario, reference_engine
    ):
        production = _grid_payload(name, scenario)
        with reference_engine():
            assert _grid_payload(name, scenario) == production

    @pytest.mark.parametrize("name", ("abd", "fast-regular", "secret-token"))
    def test_parallel_matches_serial(self, name):
        cluster = (
            Cluster(name, t=1, n_readers=3)
            .with_scenario("fault-free")
            .with_workload(operations=6, spacing=40)
            .check(get_spec(name).default_check())
        )
        serial = cluster.run(trials=3, seed=11)
        parallel = cluster.run(trials=3, seed=11, parallel=True)
        assert canonical(serial.to_dict()) == canonical(parallel.to_dict())

    def test_sweep_matches_reference(self, reference_engine):
        grid = dict(scenarios=("fault-free",), trials=2, seed=3, checks=("atomicity",))
        production = sweep(("abd",), **grid)
        with reference_engine():
            reference = sweep(("abd",), **grid)
        assert canonical(production.runs[0].to_dict()) == canonical(
            reference.runs[0].to_dict()
        )


def _observe(cluster, seed=3, max_events=1_000_000):
    """One trial of ``cluster`` at the backend: executed events (or the
    budget error), every history's records — step numbers included — the
    wire-trace fingerprint, how many messages each object saw and, under a
    durability seam, every object's journal records."""
    spec = cluster._trial_specs(1, seed, keep_history=False)[0]
    with scoped_operation_serials(), closing(build_backend(spec)) as backend:
        for plan in spec.plans():
            backend.schedule(plan)
        try:
            executed = backend.run(max_events=max_events)
        except SimulationError as caught:
            executed = str(caught)
        histories = {key: h.records for key, h in backend.histories().items()}
        seen = {str(s.pid): s.messages_seen for s in backend.simulator.objects.values()}
        storage = backend.storage
        journals = (
            {name: store.records() for name, store in storage.stores.items()}
            if storage is not None else {}
        )
        return executed, histories, trace_fingerprint(backend.trace), seen, journals


def _observe_both(reference_engine, cluster, **kwargs):
    production = _observe(cluster, **kwargs)
    with reference_engine():
        reference = _observe(cluster, **kwargs)
    return production, reference


#: One protocol + layout per registered backend, for the fault grid.
FAULT_GRID_BACKENDS = {
    "single": ("fast-regular", {}),
    "sharded": ("fast-regular", dict(backend="sharded", keys=3)),
    "k-atomic": ("fast-regular", dict(backend="k-atomic")),
    "multi-writer": ("mwmr-fast-regular", dict(n_writers=2)),
    "reconfig": ("abd", dict(backend="reconfig")),
}


def _wave_dense_cells():
    """name → cluster whose schedule lands four invocations on one tick,
    twice: every object meets several messages in a wave."""
    def together(*ops):
        return [op(at) for at in (0, 40) for op in ops]

    def write(value, key=None, writer=1):
        return lambda at: OperationPlan(
            kind="write", client_index=writer, value=f"{value}@{at}", at=at, key=key
        )

    def read(reader, key=None):
        return lambda at: OperationPlan(
            kind="read", client_index=reader, value=None, at=at, key=key
        )

    single = together(write("v"), read(1), read(2), read(3))
    return {
        "single": Cluster("abd", t=1, n_readers=3).with_operations(single),
        "sharded-two-keys": (
            Cluster("abd", t=1, n_readers=2, backend="sharded", keys=("a", "b"))
            .with_operations(together(
                write("x", key="a"), write("y", key="b"),  # one writer per key
                read(1, key="a"), read(2, key="b"),
            ))
        ),
        "multi-writer": (
            Cluster("mwmr-fast-regular", t=1, n_readers=2, n_writers=2)
            .with_operations(together(
                write("x"), write("y", writer=2), read(1), read(2),
            ))
        ),
        "durable": (
            Cluster("abd", t=1, n_readers=3, durability="mem")
            .with_faults("crash-recover", survive_messages=2, rejoin_after=3)
            .with_operations(single)
        ),
    }


class TestTraceEquivalence:
    """Histories, event counts and wire traces are identical — the strongest
    observable artifacts, below anything a result payload summarises."""

    @pytest.mark.parametrize("cell", sorted(_wave_dense_cells()))
    def test_wave_dense_schedules_identical(self, cell, reference_engine):
        """Several invocation runs per wave — where the walk once grouped
        handler work per object — down to ``messages_seen`` and the journals."""
        production, reference = _observe_both(reference_engine, _wave_dense_cells()[cell])
        executed, histories, _, seen, journals = production
        assert isinstance(executed, int) and all(
            record.complete for records in histories.values() for record in records
        )
        assert min(seen.values()) >= 8  # no object met fewer than one message per operation
        assert bool(journals) == (cell == "durable")
        assert production == reference

    @pytest.mark.parametrize("backend,keys", [
        ("single", None),
        ("sharded", 4),
        ("sharded", 16),
    ])
    def test_wire_traces_identical(self, backend, keys, reference_engine):
        cluster = Cluster("abd", t=1, n_readers=3, backend=backend, keys=keys)
        production, reference = _observe_both(
            reference_engine, cluster.with_workload(operations=12, spacing=25)
        )
        assert production == reference

    @pytest.mark.parametrize("protocol", ("mwmr-fast-regular", "mw-abd"))
    def test_multi_writer_traces_identical(self, protocol, reference_engine):
        cluster = Cluster(protocol, t=1, n_readers=3)
        production, reference = _observe_both(
            reference_engine, cluster.with_workload(operations=12, spacing=25)
        )
        assert production == reference

    def test_the_fault_grid_names_every_backend(self):
        assert set(FAULT_GRID_BACKENDS) == set(available_backends())

    @pytest.mark.parametrize("backend", sorted(FAULT_GRID_BACKENDS))
    @pytest.mark.parametrize("fault", available_faults())
    def test_every_fault_behaviour_on_every_backend(self, fault, backend, reference_engine):
        """``BatchedSimulator._drain`` inlines ``ObjectServer.receive``; a
        fault hook the two dispatch differently shows up here."""
        protocol, layout = FAULT_GRID_BACKENDS[backend]
        cluster = (
            Cluster(protocol, t=1, n_readers=2, durability="mem", **layout)
            .with_faults(fault)
            .with_workload(operations=10, spacing=20)
        )
        if backend == "reconfig":
            cluster = cluster.with_repairs((1, 60))
        production, reference = _observe_both(reference_engine, cluster, seed=4)
        assert isinstance(production[0], int) and production[0] > 0
        assert production == reference

    @pytest.mark.parametrize("budget", (10, 37, 64, 101))
    def test_budget_truncation_identical(self, budget, reference_engine):
        """An exhausted event budget cuts both engines at the same event."""
        cluster = Cluster("abd", t=1, n_readers=3).with_workload(operations=12, spacing=25)
        production, reference = _observe_both(reference_engine, cluster, max_events=budget)
        assert production[0] == f"event budget of {budget} exhausted"
        assert production == reference


THREE_OPERATIONS = [("write", "v1", 0), ("read", 1, 60), ("read", 2, 120)]


def _parity_cells():
    """name → (cluster, explore keywords).

    Every way a controlled schedule reaches the network: both link
    granularities, round links of a two-round protocol searched depth-first
    (ABD's reads write back), fault triggers, a repair and a
    crash-recovering durable object.
    """
    plain = Cluster("fast-regular", t=1).with_operations(THREE_OPERATIONS)
    overfaulted = (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=2)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
        .check("atomicity")
    )
    repaired = (
        Cluster("abd", t=1, backend="reconfig")
        .with_faults("perm-crash", survive_messages=1)
        .with_repairs((1, 5))
        .with_workload(operations=2, reads=0.5, spacing=10)
    )
    recovering = (
        Cluster("abd", t=1, durability="mem")
        .with_faults("crash-recover")
        .with_operations(THREE_OPERATIONS)
    )
    return {
        "operation": (plain, dict(max_holds=2)),
        "round": (plain, dict(max_holds=2, granularity="round")),
        "multi-round": (
            Cluster("abd", t=1).with_operations(THREE_OPERATIONS),
            dict(max_holds=2, granularity="round", strategy="dfs"),
        ),
        "fault-timing": (overfaulted, dict(max_holds=1, fault_timing=True)),
        "repair": (repaired, dict(max_holds=1, seed=7)),
        "crash-recover": (recovering, dict(max_holds=1, granularity="round")),
    }


class TestExploreParity:
    """Certify/refute outcomes and witness fingerprints match the reference."""

    @pytest.mark.parametrize("name", SINGLE_BACKEND_PROTOCOLS)
    def test_certification_parity(self, name, reference_engine):
        cluster = Cluster(name, t=1).with_operations(THREE_OPERATIONS)
        production = cluster.explore(max_holds=1)
        with reference_engine():
            reference = cluster.explore(max_holds=1)
        assert canonical(production.to_dict()) == canonical(reference.to_dict())

    @pytest.mark.parametrize("cell", sorted(_parity_cells()))
    def test_controlled_schedule_grid(self, cell, reference_engine):
        """The whole result, every witness and every per-schedule outcome."""
        cluster, bounds = _parity_cells()[cell]

        def explore():
            result = cluster.explore(**bounds)
            probe = cluster._schedule_probe(
                SearchBounds(granularity=bounds.get("granularity", "operation")),
                seed=bounds.get("seed", 0),
            )
            free = run_schedule(probe)
            return result, [free] + [
                run_schedule(probe.with_decisions((link,))) for link in free.expansions
            ]

        production, outcomes = explore()
        with reference_engine():
            reference, reference_outcomes = explore()
        assert production.stats.explored > 1
        assert canonical(production.to_dict()) == canonical(reference.to_dict())
        assert [w.to_dict() for w in production.witnesses] == [
            w.to_dict() for w in reference.witnesses
        ]
        assert outcomes == reference_outcomes

    @pytest.mark.parametrize("granularity", ("operation", "round"))
    def test_refutation_parity(self, granularity, reference_engine):
        cluster = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=2)
            .with_operations([("write", "v1", 0), ("read", 1, 100)])
            .check("atomicity")
        )
        production = cluster.explore(max_holds=2, granularity=granularity)
        with reference_engine():
            reference = cluster.explore(max_holds=2, granularity=granularity)
            # A witness found on the production engine replays on the reference…
            assert production.witnesses[0].reproduces()
        # …and the other way round.
        assert reference.witnesses[0].reproduces()
        assert production.violations >= 1
        assert production.witnesses[0] == reference.witnesses[0]


class _Unshaped(DeliveryPolicy):
    """``inner``'s decisions through ``delay`` alone: no declared shape, so
    both engines serve it message by message — the reference path."""

    def __init__(self, inner):
        self.inner = inner

    def delay(self, message, now):
        return self.inner.delay(message, now)


class _HoldRepliesFromTick(FifoDelivery):
    """Overrides ``delay`` alone (a time-dependent hold, like the ablation
    benchmark's inversion schedule): the inherited shape is withdrawn."""

    def __init__(self, tick):
        super().__init__()
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
            Cluster("fast-regular", t=1)
            .with_operations(THREE_OPERATIONS)
            ._schedule_probe(SearchBounds(granularity="round"))
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
        lambda: WithholdFrom([object_id(1)]),
        lambda: _HoldRepliesFromTick(80),
    ))
    def test_unshaped_policies_keep_the_per_message_path(self, monkeypatch, policy):
        calls = _count_calls(monkeypatch, Network, "send", "_schedule_delivery")
        with scoped_operation_serials():
            system = RegisterSystem(get_spec("abd").build(), t=1, policy=policy())
            system.write("v1", at=0)
            system.read(1, at=80)
            system.run()
        kinds = [kind for _, kind, _ in system.trace.entries]
        assert calls["send"] == kinds.count(TraceKind.SEND) > 0
        assert calls["_schedule_delivery"] == calls["send"] - kinds.count(TraceKind.HOLD)

    def test_time_dependent_hold_over_a_shaped_base_is_honoured(self, reference_engine):
        """``delay`` overridden below the class that declared the shape: the
        replies sent from tick 80 on stay in transit on both engines."""
        def run():
            with scoped_operation_serials():
                system = RegisterSystem(
                    get_spec("abd").build(), t=1, policy=_HoldRepliesFromTick(80)
                )
                system.write("v1", at=0)
                system.read(1, at=80)
                system.run()
            trace = [(time, kind, str(m)) for time, kind, m in system.trace.entries]
            assert [kind for _, kind, _ in trace].count(TraceKind.HOLD) == 3
            return trace

        production = run()
        with reference_engine():
            assert run() == production

    @pytest.mark.parametrize("held", ("replies", "invocations"))
    @pytest.mark.parametrize("latency", (1, 3))
    def test_a_hold_over_any_uniform_latency_takes_the_fast_path(
        self, monkeypatch, latency, held, reference_engine
    ):
        """Nothing held is ever released, so a holding policy is served from
        the fast path at any declared latency — and matches the per-message
        path, on both engines, event for event.  The explorer's links never
        hold a reply on their own, so a shaped double holds s1's replies
        (the walk's reply branch) or its invocations (``send_round``)."""
        def policy():
            if held == "replies":
                return ShapedHold(lambda m: m.is_reply and m.src == object_id(1), latency)
            return ShapedHold(lambda m: not m.is_reply and m.dst == object_id(1), latency)

        def run(make):
            with scoped_operation_serials():
                system = RegisterSystem(get_spec("abd").build(), t=1, policy=make())
                system.write("v1", at=0)
                system.read(1, at=80)
                events = system.run()
            return events, trace_fingerprint(system.trace), [
                (r.kind, r.value, r.responded_at) for r in system.history().records
            ]

        calls = _count_calls(monkeypatch, Network, "send")
        fast = run(policy)
        assert calls["send"] == 0
        assert run(lambda: _Unshaped(policy())) == fast and calls["send"] > 0
        with reference_engine():
            assert run(policy) == fast


class TestWaveQueue:
    def test_schedule_preserves_order_within_a_tick(self):
        queue = WaveQueue()
        first, second, now = (lambda: None), (lambda: None), (lambda: None)
        queue.schedule(1, first)
        queue.schedule(1, second)
        queue.schedule(0, now)
        # One FIFO bucket per tick, each tick pushed once onto the time heap.
        assert queue._buckets == {1: [first, second], 0: [now]}
        assert sorted(queue._times) == [0, 1] and queue.now == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            WaveQueue().schedule(-1, lambda: None)


class _DispatchLog(ObjectHandler):
    """``inner`` plus one line per call in a list every object shares: the
    global order in which the engine dispatches handlers."""

    def __init__(self, inner, pid, log):
        self.inner, self.pid, self.log = inner, pid, log

    def initial_state(self):
        return self.inner.initial_state()

    def handle(self, state, message):
        self.log.append((self.pid.index, message.op.serial, message.round_no))
        return self.inner.handle(state, message)


class TestDispatchOrder:
    """One dispatch per delivery, in the reference engine's global order."""

    @pytest.mark.parametrize("crashing", (False, True), ids=("correct", "crash-inside-the-wave"))
    def test_handlers_run_in_the_reference_engines_global_order(
        self, crashing, reference_engine
    ):
        """Three clients invoke at one tick, twice over.  ``CrashAt`` crosses
        its threshold on the second of the three messages s1 meets first."""
        def run():
            log = []
            behaviors = {object_id(1): CrashAt(survive_messages=1)} if crashing else None
            with scoped_operation_serials():
                system = RegisterSystem(
                    get_spec("abd").build(n_readers=3), t=1, n_readers=3, behaviors=behaviors
                )
                for server in system.servers:
                    server.handler = _DispatchLog(server.handler, server.pid, log)
                for at in (0, 30):
                    for reader in (1, 2, 3):
                        system.read(reader, at=at)
                events = system.run()
            assert all(op.complete for op in system.history().records)
            return events, log, [server.messages_seen for server in system.servers]

        production = run()
        with reference_engine():
            assert run() == production
        # Wave-entry order — a whole broadcast, then the next client's — not
        # object-major (s1's three messages first).
        assert production[1][:4] == [(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1)]

    def test_concurrent_rounds_match_event_engine(self, reference_engine):
        def run():
            with scoped_operation_serials():
                system = RegisterSystem(get_spec("abd").build(n_readers=3), t=1, n_readers=3)
                system.write("v1", at=0)
                system.read(1, at=0)
                system.read(2, at=0)
                system.read(3, at=0)
                return system.run(), trace_fingerprint(system.trace)

        production = run()
        with reference_engine():
            assert run() == production
