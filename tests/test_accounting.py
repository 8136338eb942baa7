"""Round accounting against the wire: one pass, and a check that can fail.

Three properties of :mod:`repro.analysis.metrics` and the trace fold under
it (:meth:`MessageTrace.round_trip_counts`):

* the fold agrees with the one-operation query ``round_trip_count`` on every
  operation of every registered protocol × advertised scenario, and on
  runs with held, dropped and Byzantine-replayed messages,
  incomplete operations and repair operations;
* the cross-check raises the documented :class:`SpecificationError` when
  wire and engine disagree — tampered at the source, a trace that never
  records a client SEND, since the fold is raised as sends are recorded;
* accounting reads the log zero times and the obs derivations a constant
  number of times, whatever the run length — counted, never timed.
"""

from unittest.mock import patch

import pytest

import repro.registers.base
from repro.analysis.metrics import LatencyReport, _account_rounds, measure_backend_latency
from repro.api import Cluster, available_protocols, get_spec
from repro.errors import SimulationError, SpecificationError
from repro.faults.schedules import PlannedSkip
from repro.obs import derive_metrics, derive_spans
from repro.sim.simulator import OperationStatus
from repro.sim.tracing import MessageTrace, TraceKind
from repro.types import scoped_operation_serials
from repro.workloads.generator import OperationPlan, WorkloadGenerator

pytestmark = pytest.mark.filterwarnings("error")

#: The sweep_grid cell list: every registered protocol × what it advertises.
GRID = [
    (name, scenario)
    for name in available_protocols()
    for scenario in get_spec(name).scenarios
]


def plans_for(cluster, operations, seed=5, reads=0.6, spacing=150):
    return WorkloadGenerator(
        seed=seed,
        n_readers=2,
        n_writers=2 if cluster.backend_spec.multi_writer else 1,
        read_fraction=reads,
        spacing=spacing,
    ).plan(operations)


def drained(cluster, plans, abort_after=None):
    """A backend that ran ``plans``; serials scoped so plan k is serial k.

    ``abort_after`` stops the run after that many events, crashes the client
    of every still-pending operation and resumes — the replies in flight to
    those clients are what the trace records as drops.
    """
    with scoped_operation_serials():
        backend = cluster.build_backend()
        for plan in plans:
            backend.schedule(plan)
        if abort_after is not None:
            with pytest.raises(SimulationError):
                backend.run(max_events=abort_after)
            for operation in backend.simulator.pending_operations():
                backend.simulator.abort(operation)
        backend.run()
    return backend


def round_trip_count(trace, op_id):
    """Rounds ``op_id`` sent on the wire, by one full scan of the trace: the
    one-operation query the fold must agree with."""
    rounds = {
        message.round_no
        for _, kind, message in trace.entries
        if kind is TraceKind.SEND and not message.is_reply and message.op == op_id
    }
    return max(rounds, default=0)


def assert_fold_matches_query(backend):
    trace = backend.trace
    counts = trace.round_trip_counts()
    operations = backend.simulator.operations
    assert operations
    for operation in operations:
        assert counts.get(operation.op_id, 0) == round_trip_count(trace, operation.op_id)
    assert set(counts) <= {operation.op_id for operation in operations}
    assert all(type(rounds) is int for rounds in counts.values())


def long_trial(operations):
    """The benchmark's ``trial_long`` configuration at ``operations``."""
    cluster = (
        Cluster("atomic-fast-regular", t=1, n_readers=2)
        .with_faults("stale-echo", count=1)
    )
    return drained(cluster, plans_for(cluster, operations, seed=11, reads=0.5, spacing=40))


def adversarial_samples():
    """Runs whose traces hold what the grid's scenarios never produce."""
    held = Cluster("fast-regular", t=1, n_readers=2).with_schedule(
        (1, (1, 2)), PlannedSkip(op=2, objects=(4,), withhold_replies=True)
    )
    churn = (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
        .with_faults("rolling-replace", count=3, base=4, stagger=8)
        .with_repairs((1, 40), (2, 110), (3, 180))
    )
    plain = Cluster("abd", t=1, n_readers=2)
    concurrent = [
        OperationPlan(kind="write", client_index=1, value="v", at=0),
        OperationPlan(kind="read", client_index=1, value=None, at=0),
        OperationPlan(kind="read", client_index=2, value=None, at=40),
    ]
    return {
        "held": drained(held, concurrent),
        "churn": drained(churn, plans_for(churn, 9, reads=0.5, spacing=30)),
        "dropped": drained(plain, concurrent, abort_after=8),
    }


class TestFoldMatchesQuery:
    @pytest.mark.parametrize("name,scenario", GRID)
    def test_every_grid_cell(self, name, scenario):
        cluster = Cluster(name, t=1, n_readers=2).with_scenario(scenario)
        assert_fold_matches_query(drained(cluster, plans_for(cluster, 10)))

    def test_held_dropped_incomplete_and_repair_operations(self):
        samples = adversarial_samples()
        for backend in samples.values():
            assert_fold_matches_query(backend)
        # The sample is what the docstring says it is.
        kinds = {
            name: {kind for _, kind, _ in backend.trace.entries}
            for name, backend in samples.items()
        }
        assert TraceKind.HOLD in kinds["held"]
        assert TraceKind.DROP in kinds["dropped"]
        statuses = {op.status for op in samples["held"].simulator.operations}
        assert OperationStatus.PENDING in statuses
        assert OperationStatus.ABORTED in {
            op.status for op in samples["dropped"].simulator.operations
        }
        repairs = [
            op for op in samples["churn"].simulator.operations if op.op_id.kind == "repair"
        ]
        assert [op.rounds_used for op in repairs] == [2, 2, 2]
        assert all(
            samples["churn"].trace.round_trip_counts()[op.op_id] == 2 for op in repairs
        )

    def test_byzantine_replay_is_in_the_grid(self):
        assert ("atomic-fast-regular", "replay") in GRID

    def test_an_operation_that_never_sent_is_absent(self):
        backend = drained(Cluster("abd", t=1), [])
        assert backend.trace.round_trip_counts() == {}


class LosesSends(MessageTrace):
    """A wire that never records the client SENDs ``lost`` picks: tampering
    at the source, where the round fold is raised."""

    def __init__(self, lost):
        super().__init__()
        self.lost = lost

    def record_send(self, time, message):
        if not self.lost(message):
            super().record_send(time, message)

    def record_send_batch(self, time, messages):
        super().record_send_batch(time, [m for m in messages if not self.lost(m)])


def accounted(lost=None):
    """(simulator, trace, re-account callable) of one measured system whose
    trace, given ``lost``, never records the client SENDs it picks."""
    cluster = Cluster("atomic-fast-regular", t=1, n_readers=2)
    trace = MessageTrace if lost is None else (lambda: LosesSends(lost))
    with scoped_operation_serials():
        with patch.object(repro.registers.base, "MessageTrace", trace):
            backend = cluster.build_backend()
        measure_backend_latency(backend, plans_for(cluster, 6))
    return backend.simulator, backend.trace, lambda: measure_backend_latency(backend, [])


class TestCrossCheckFires:
    def test_dropped_send_entries_raise_the_documented_error(self):
        simulator, trace, reaccount = accounted()
        reaccount()  # an untampered wire passes
        victim = next(op for op in simulator.operations if op.op_id.kind == "read")
        assert victim.rounds_used == 4
        assert type(trace) is MessageTrace

        def last_round(message):
            return message.op == victim.op_id and message.round_no == 4

        with pytest.raises(SpecificationError) as caught:
            accounted(last_round)
        assert str(caught.value) == (
            f"engine counted 4 rounds for {victim.op_id} but the wire shows 3"
        )

    def test_an_operation_missing_from_the_wire_shows_zero(self):
        simulator, _trace, _reaccount = accounted()
        victim = simulator.operations[0]
        with pytest.raises(SpecificationError) as caught:
            accounted(lambda message: message.op == victim.op_id)
        assert str(caught.value) == (
            f"engine counted {victim.rounds_used} rounds for {victim.op_id} "
            "but the wire shows 0"
        )

    def test_a_bumped_round_record_raises(self):
        simulator, _trace, reaccount = accounted()
        victim = next(op for op in simulator.operations if op.op_id.kind == "write")
        victim.rounds.append(victim.rounds[-1])
        with pytest.raises(SpecificationError) as caught:
            reaccount()
        assert str(caught.value) == (
            f"engine counted 3 rounds for {victim.op_id} but the wire shows 2"
        )

    def test_the_check_runs_on_an_unlogged_trace(self):
        """A trial's log is dropped after the build; the fold still fires."""
        simulator, trace, reaccount = accounted()
        trace.drop_log()
        reaccount()
        simulator.operations[0].rounds.append(simulator.operations[0].rounds[-1])
        with pytest.raises(SpecificationError, match="but the wire shows"):
            reaccount()


class CountingEntries(list):
    """A trace log that counts how many times it is iterated."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestTraceIsReadAConstantNumberOfTimes:
    """A per-operation rescan of the wire cannot return unnoticed."""

    LENGTHS = (40, 160, 640)

    def passes(self, step):
        counted = []
        for operations in self.LENGTHS:
            backend = long_trial(operations)
            assert len(backend.simulator.operations) == operations
            entries = backend.trace.log = CountingEntries(backend.trace.entries)
            step(backend)
            counted.append(entries.passes)
        return counted

    def test_account_rounds(self):
        def account(backend):
            report = LatencyReport(protocol="p", scenario="s")
            _account_rounds(backend.simulator, backend.trace, report)
            assert len(report.read_rounds) + len(report.write_rounds) == len(
                backend.simulator.operations
            )

        assert self.passes(account) == [0, 0, 0]

    def test_derive_spans_and_metrics(self):
        def derive(backend):
            spans = derive_spans(backend.simulator, backend.trace)
            derive_metrics(spans, backend.trace, events=0)

        counted = self.passes(derive)
        assert len(set(counted)) == 1 and counted[0] <= 2, counted

    def test_the_counter_sees_a_rescan(self):
        # The old shape — one query per operation — is what the counter
        # exists to catch: it must read as linear in the operation count.
        backend = long_trial(40)
        entries = backend.trace.log = CountingEntries(backend.trace.entries)
        for operation in backend.simulator.operations:
            round_trip_count(backend.trace, operation.op_id)
        assert entries.passes == 40
