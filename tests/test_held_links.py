"""Held links: the one way a schedule keeps messages in transit.

The paper's lower bounds are schedule arguments — a round skips a block of
objects, and the skipped messages stay in transit until the partial run
ends.  The harness says that with the explorer's
:class:`~repro.explore.controlled.HoldLink` decisions, run through
:func:`~repro.explore.run_schedule`; a reply-only "slow but correct
objects" adversary is a :class:`~repro.faults.schedules.WithholdFrom`
policy handed to a system directly.  No scenario changes the fabric.
"""

import pytest

from repro.api import Cluster, get_spec
from repro.axes import SearchBounds
from repro.explore import HoldLink, run_schedule
from repro.explore.controlled import ControlledDelivery
from repro.faults.schedules import WithholdFrom
from repro.registers.base import RegisterSystem
from repro.sim.network import FifoDelivery, Message
from repro.sim.simulator import OperationStatus
from repro.sim.tracing import TraceKind
from repro.types import (
    OperationId,
    object_id,
    reader_id,
    scoped_operation_serials,
    writer_id,
)
from repro.workloads.generator import OperationPlan
from repro.workloads.scenarios import available_scenarios, get_scenario


def write_then_read(*holds, granularity="operation"):
    """The outcome of a write at tick 0 and a read at tick 120 on
    fast-regular (t=1, S=4) with ``holds`` in transit."""
    probe = (
        Cluster("fast-regular", t=1, S=4)
        .with_operations([("write", "v1", 0), ("read", 1, 120)])
        .check("regularity")
        ._schedule_probe(SearchBounds(granularity=granularity))
    )
    return run_schedule(probe.with_decisions(holds))


class TestHeldLinksShapeTheRun:
    def test_held_write_stays_incomplete(self):
        # The write never reaches s1 and s2: only 2 of the S−t = 3 acks it
        # needs can arrive, so it is a partial-run operation — and the
        # reader, which still hears everyone, keeps regularity.
        outcome = write_then_read(HoldLink(1, 1), HoldLink(1, 2))
        assert outcome.incomplete == 1
        assert outcome.held_messages == 2
        assert outcome.passed == ("regularity",) and not outcome.violating

    def test_round_scoped_hold_only_delays(self):
        # Holding only round 1 of the read on s4 leaves its later rounds
        # untouched; round 1 still terminates on the other 3 replies.
        outcome = write_then_read(HoldLink(2, 4, 1), granularity="round")
        assert outcome.incomplete == 0
        assert outcome.held_messages >= 1
        assert not outcome.violating

    def test_holds_change_the_run(self):
        free = write_then_read()
        held = write_then_read(HoldLink(1, 1), HoldLink(1, 2))
        assert free.held_messages == 0 and free.trace_key == ()
        assert len(held.trace_key) == held.held_messages == 2
        assert held.trace_hash != free.trace_hash
        # Held links carried no delivered traffic, so they leave the alphabet.
        assert HoldLink(1, 1) in free.expansions
        assert not {HoldLink(1, 1), HoldLink(1, 2)} & set(held.expansions)

    def test_the_same_holds_give_the_same_run(self):
        holds = (HoldLink(1, 2), HoldLink(2, 4))
        assert write_then_read(*holds) == write_then_read(*reversed(holds))


def _message(dst_or_src, round_no=1, is_reply=False, op=1):
    client = writer_id()
    endpoint = object_id(dst_or_src) if isinstance(dst_or_src, int) else dst_or_src
    return Message(
        src=endpoint if is_reply else client,
        dst=client if is_reply else endpoint,
        op=OperationId(client=client, kind="write", serial=op),
        round_no=round_no,
        tag="T",
        payload={},
        is_reply=is_reply,
    )


class TestWhatALinkCovers:
    def test_an_operation_link_cuts_both_directions_of_every_round(self):
        policy = ControlledDelivery([HoldLink(1, 2)])
        assert policy.delay(_message(2), 0) is None
        assert policy.delay(_message(2, round_no=3, is_reply=True), 0) is None
        assert policy.delay(_message(3), 0) == 1            # another object
        assert policy.delay(_message(2, op=2), 0) == 1      # another operation
        assert policy.delay(_message(reader_id(1)), 0) == 1  # client↔client
        assert policy.held_messages == 2
        assert policy.delivered_links == (HoldLink(1, 3), HoldLink(2, 2))

    def test_a_round_link_cuts_only_its_round(self):
        policy = ControlledDelivery([HoldLink(1, 2, 1)], granularity="round")
        assert policy.delay(_message(2), 0) is None
        assert policy.delay(_message(2, is_reply=True), 0) is None
        assert policy.delay(_message(2, round_no=2), 0) == 1
        assert policy.held_messages == 2
        assert policy.delivered_links == (HoldLink(1, 2, 2),)


def test_withheld_replies_model_slow_correct_objects():
    # s4 applies the read's invocation but its reply never reaches the
    # reader: the read still completes on the quorum of 3 of 4.
    system = RegisterSystem(
        get_spec("fast-regular").build(), t=1, S=4,
        policy=WithholdFrom([object_id(4)], clients=[reader_id(1)]),
    )
    with scoped_operation_serials():
        system.schedule(OperationPlan(kind="write", client_index=1, value="v1", at=0))
        system.schedule(OperationPlan(kind="read", client_index=1, value=None, at=120))
        system.run()
    operations = system.simulator.operations
    assert [op.status for op in operations] == [OperationStatus.COMPLETE] * 2
    assert operations[1].result == "v1"
    held = [m for _, kind, m in system.trace.entries if kind is TraceKind.HOLD]
    assert held and all(
        m.is_reply and m.src == object_id(4) and m.dst == reader_id(1) for m in held
    )
    system.close()


@pytest.mark.parametrize("scenario", available_scenarios())
def test_every_scenario_runs_on_the_default_fabric(scenario):
    # Which messages stay in transit is the explorer's choice, never a
    # scenario's: every registered scenario builds on the FIFO fabric.
    cluster = Cluster("abd", t=1).with_scenario(scenario)
    if get_scenario(scenario, 1).requires_durability:
        cluster = Cluster("abd", t=1, durability="mem").with_scenario(scenario)
    backend = cluster.build_backend()
    try:
        assert type(backend.simulator.network.policy) is FifoDelivery
    finally:
        backend.close()
