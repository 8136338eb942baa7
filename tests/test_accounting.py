"""Round accounting against the wire: one pass, and a check that can fail.

Three properties of :mod:`repro.analysis.metrics` and the trace fold under
it (:meth:`MessageTrace.round_trip_counts`):

* the fold agrees with the one-operation query ``round_trip_count`` on every
  operation of every registered protocol × advertised scenario, and on
  runs with held, dropped and Byzantine-replayed messages,
  incomplete operations and repair operations;
* the cross-check raises the documented :class:`SpecificationError` when
  wire and engine disagree;
* accounting and the obs derivations read the trace a constant number of
  times whatever the run length — counted, never timed.
"""

import pytest

from repro.analysis.metrics import LatencyReport, _account_rounds, measure_backend_latency
from repro.api import Cluster, available_protocols, get_spec
from repro.errors import SimulationError, SpecificationError
from repro.faults.schedules import PlannedSkip
from repro.obs import derive_metrics, derive_spans
from repro.sim.simulator import OperationStatus
from repro.sim.tracing import TraceKind
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


def assert_fold_matches_query(backend):
    trace = backend.trace
    counts = trace.round_trip_counts()
    operations = backend.simulator.operations
    assert operations
    for operation in operations:
        assert counts.get(operation.op_id, 0) == trace.round_trip_count(operation.op_id)
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


def accounted():
    """(simulator, trace, re-account callable) of one measured system."""
    cluster = Cluster("atomic-fast-regular", t=1, n_readers=2)
    with scoped_operation_serials():
        backend = cluster.build_backend()
        measure_backend_latency(backend, plans_for(cluster, 6))
    return backend.simulator, backend.trace, lambda: measure_backend_latency(backend, [])


class TestCrossCheckFires:
    def test_dropped_send_entries_raise_the_documented_error(self):
        simulator, trace, reaccount = accounted()
        reaccount()  # an untampered wire passes
        victim = next(op for op in simulator.operations if op.op_id.kind == "read")
        rounds = victim.rounds_used
        assert rounds == 4
        trace.entries[:] = [
            entry for entry in trace.entries
            if not (
                entry[1] is TraceKind.SEND
                and not entry[2].is_reply
                and entry[2].op == victim.op_id
                and entry[2].round_no == rounds
            )
        ]
        with pytest.raises(SpecificationError) as caught:
            reaccount()
        assert str(caught.value) == (
            f"engine counted 4 rounds for {victim.op_id} but the wire shows 3"
        )

    def test_an_operation_missing_from_the_wire_shows_zero(self):
        simulator, trace, reaccount = accounted()
        victim = simulator.operations[0]
        trace.entries[:] = [e for e in trace.entries if e[2].op != victim.op_id]
        with pytest.raises(SpecificationError) as caught:
            reaccount()
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
            entries = backend.trace.entries = CountingEntries(backend.trace.entries)
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

        counted = self.passes(account)
        assert len(set(counted)) == 1 and counted[0] <= 2, counted

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
        entries = backend.trace.entries = CountingEntries(backend.trace.entries)
        for operation in backend.simulator.operations:
            backend.trace.round_trip_count(operation.op_id)
        assert entries.passes == 40
