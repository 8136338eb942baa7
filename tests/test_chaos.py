"""Chaos tests: client crashes, fault cocktails, hostile schedules.

Wait-freedom and safety must survive everything the model allows at once:
clients crashing mid-operation (their write-backs half-delivered), mixed
Byzantine behaviours up to the threshold, and heavily skewed delivery.
"""

import pytest

from repro.api import Cluster, available_protocols, get_spec
from repro.faults.adversary import CrashAt, SilentBehavior, flaky_behavior
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.faults.schedules import WithholdFrom
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.registers.secret_token import SecretTokenProtocol
from repro.registers.transform_atomic import RegularToAtomicProtocol
from repro.sim.network import SelectiveHold
from repro.sim.simulator import OperationStatus
from repro.sim.tracing import TraceKind
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.linearizability import is_linearizable
from repro.spec.regularity import check_swmr_regularity
from repro.spec.safety import check_swmr_safety
from repro.types import object_id, reader_id
from repro.workloads.generator import OperationPlan

from helpers import RandomDelivery

#: write(a); r1 reads; write(b); r2 reads twice — spaced so every protocol's
#: operations finish before the next one starts.
CRASH_PLANS = (
    OperationPlan(kind="write", client_index=1, value="a", at=0),
    OperationPlan(kind="read", client_index=1, value=None, at=60),
    OperationPlan(kind="write", client_index=1, value="b", at=200),
    OperationPlan(kind="read", client_index=2, value=None, at=350),
    OperationPlan(kind="read", client_index=2, value=None, at=500),
)
#: One tick into r1's read / write(b): the first round is on the wire.
CRASH_AT = {"read": 61, "write": 201}
#: What each registered protocol claims, as a predicate on its history.
HOLDS = {
    "atomic": is_linearizable,
    "regular": lambda history: check_swmr_regularity(history).ok,
    "safe": lambda history: check_swmr_safety(history).ok,
}


def crash_one_client(name, kind):
    """Run :data:`CRASH_PLANS` on ``name`` and crash the client of the
    ``kind`` operation in flight at :data:`CRASH_AT` — its history, trace
    entries and the crashed operations."""
    backend = Cluster(name, t=1, n_readers=2).build_backend()
    simulator = backend.simulator
    crashed = []

    def crash():
        crashed.extend(
            op for op in simulator.pending_operations()
            if op.rounds_used and op.op_id.kind == kind
        )
        for op in crashed:
            simulator.abort(op)

    try:
        for plan in CRASH_PLANS:
            backend.schedule(plan)
        simulator.queue.schedule(CRASH_AT[kind], crash)
        backend.run()
        return backend.history(), list(backend.trace.entries), crashed
    finally:
        backend.close()


class TestClientCrashes:
    def test_writer_crash_mid_write_still_linearizable(self):
        """A write aborted between its two phases is 'concurrent forever':
        later reads may return either value, but must stay consistent."""
        system = RegisterSystem(FastRegularProtocol(), t=1, n_readers=2)
        system.write("a", at=0)
        crashing = system.write("b", at=60)
        system.simulator.queue.schedule(63, lambda: system.simulator.abort(crashing))
        system.read(1, at=120)
        system.read(2, at=180)
        system.run()
        history = system.history()
        assert is_linearizable(history)
        values = [r.value for r in history.reads()]
        # Reads agree-or-progress: never b-then-a.
        assert values != ["b", "a"]

    def test_reader_crash_mid_write_back_harmless(self):
        """A reader aborted after its query but before finishing the
        write-back must not corrupt later reads."""
        protocol = RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=2)
        system = RegisterSystem(protocol, t=1, n_readers=2)
        system.write("a", at=0)
        doomed = system.read(1, at=60)
        system.simulator.queue.schedule(64, lambda: system.simulator.abort(doomed))
        system.write("b", at=140)
        system.read(2, at=220)
        system.run()
        history = system.history()
        assert history.reads()[-1].value == "b"
        assert check_swmr_atomicity(history).ok

    @pytest.mark.parametrize("kind", ("read", "write"))
    @pytest.mark.parametrize("name", available_protocols())
    def test_every_protocol_survives_a_client_crash(self, name, kind):
        """The crashed operation stays incomplete, every other client still
        finishes, the replies in flight to the crashed client are dropped on
        arrival, and the history keeps what the protocol claims."""
        history, entries, crashed = crash_one_client(name, kind)
        (op,) = crashed
        assert op.status is OperationStatus.ABORTED and op.rounds_used == 1
        assert [r.op_id for r in history.records if not r.complete] == [op.op_id]
        assert len(history.records) == len(CRASH_PLANS)
        dropped = [m for _, k, m in entries if k is TraceKind.DROP]
        assert dropped and all(m.is_reply and m.dst == op.client for m in dropped)
        assert HOLDS[get_spec(name).semantics](history)
        later = [r.value for r in history.reads(complete_only=True)][-2:]
        if kind == "read":
            # write(b) completed before either read began: every claim
            # down to safety forces b.
            assert later == ["b", "b"]
        else:
            assert set(later) <= {"a", "b"}

    def test_aborted_operation_not_counted_complete(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=1)
        policy_victim = system.read(1, at=0)
        system.simulator.queue.schedule(0, lambda: system.simulator.abort(policy_victim))
        system.run()
        assert not system.history().reads(complete_only=True)


class TestFaultCocktails:
    def test_mixed_byzantine_at_threshold(self):
        """t = 3: one fabricator, one stale-echo, one silent — all at once."""
        t = 3
        system = RegisterSystem(
            FastRegularProtocol("unauthenticated"), t=t, n_readers=2,
            behaviors={
                object_id(1): FabricatingBehavior(),
                object_id(2): StaleEchoBehavior(frozen_state={}),
                object_id(3): SilentBehavior(),
            },
        )
        system.write("a", at=0)
        system.read(1, at=80)
        system.write("b", at=160)
        system.read(2, at=240)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "b"]
        assert check_swmr_regularity(history).ok

    def test_token_stack_under_cocktail(self):
        t = 2
        protocol = RegularToAtomicProtocol(lambda: SecretTokenProtocol(), n_readers=2)
        system = RegisterSystem(
            protocol, t=t, n_readers=2,
            behaviors={
                object_id(1): FabricatingBehavior(),
                object_id(2): CrashAt(survive_messages=4),
            },
        )
        system.write("a", at=0)
        system.read(1, at=80)
        system.write("b", at=160)
        system.read(2, at=240)
        system.run()
        history = system.history()
        assert sum(r.complete for r in history.records) == 4
        assert check_swmr_atomicity(history).ok

    def test_flaky_objects_within_threshold(self):
        system = RegisterSystem(
            FastRegularProtocol(), t=2, n_readers=2,
            behaviors={
                object_id(1): flaky_behavior(p_reply=0.4, seed=3),
                object_id(2): flaky_behavior(p_reply=0.4, seed=4),
            },
        )
        for i, at in enumerate((0, 100, 200)):
            system.write(f"v{i}", at=at)
            system.read(1 + i % 2, at=at + 50)
        system.run()
        history = system.history()
        assert sum(r.complete for r in history.records) == 6  # wait-freedom despite flakiness
        assert check_swmr_regularity(history).ok


class TestHostileSchedules:
    def test_reader_starved_of_freshest_objects(self):
        """Withhold the replies of two specific objects from one reader:
        with S - t still answering, its reads must stay live and regular."""
        system = RegisterSystem(
            FastRegularProtocol(), t=1, n_readers=2,
            policy=WithholdFrom(objects=[object_id(1)], clients=[reader_id(1)]),
        )
        system.write("a", at=0)
        system.read(1, at=60)
        system.write("b", at=120)
        system.read(1, at=200)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "b"]
        assert check_swmr_regularity(history).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_high_variance_delays_with_byzantine(self, seed):
        system = RegisterSystem(
            RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=2),
            t=1, n_readers=2,
            policy=RandomDelivery(seed=seed, min_latency=1, max_latency=25),
        )
        rogue = system.server(object_id(4))
        rogue.behavior = StaleEchoBehavior(frozen_state={})
        system.write("a", at=0)
        system.read(1, at=10)
        system.write("b", at=300)
        system.read(2, at=310)
        system.read(1, at=600)
        system.run()
        verdict = check_swmr_atomicity(system.history())
        assert verdict.ok, verdict.explanation

    def test_all_invocations_to_one_object_withheld(self):
        """An object that never hears anything is just a slow correct
        object: progress and consistency must be unaffected."""
        system = RegisterSystem(
            FastRegularProtocol(), t=1, n_readers=1,
            policy=SelectiveHold(lambda m: (m.src if m.is_reply else m.dst) == object_id(2)),
        )
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "a"
        assert system.server(object_id(2)).messages_seen == 0
