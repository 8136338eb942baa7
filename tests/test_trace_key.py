"""The explorer's duplicate-trace key, against the fingerprint it replaced.

A search treats a schedule whose wire trace equals an earlier one's as a
duplicate.  It compares runs by :attr:`ControlledDelivery.trace_key` — the
ordinals of the held messages, plus a digest of what faulted objects replied
— instead of rendering the sha256 :func:`trace_fingerprint` of every trace.
Two facts make that exact, and each is pinned here:

* the policy is asked about every message once, in send order, on the fast
  path and on the per-message path alike, so a message's ordinal is its
  position among the trace's SEND entries;
* for decision sets of one configuration, equal keys ⟺ equal fingerprints —
  drawn by hypothesis from each cell's discovered alphabet, with two pinned
  pairs of *different* decision sets that leave equal traces.
"""

from contextlib import nullcontext
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Cluster
from repro.api.cluster import build_backend
from repro.axes import SearchBounds
from repro.explore import (
    ControlledDelivery,
    FaultTrigger,
    HoldLink,
    canonical_decisions,
    judge,
    run_schedule,
    simulate,
)
from repro.explore import engine as explore_engine
from repro.sim.network import Network
from repro.sim.tracing import TraceKind
from repro.types import scoped_operation_serials


class _Staggered(ControlledDelivery):
    """The controlled delivery with ``delay`` overridden: what it delivers
    lands one to three ticks later by endpoints and round — a function of
    the message alone — and the override withdraws the declared shape, so
    the network asks message by message."""

    def delay(self, message, now):
        if super().delay(message, now) is None:
            return None
        return 1 + (message.src.index + message.dst.index + message.round_no) % 3


def fault_free():
    return Cluster("fast-regular", t=1).with_operations(
        [("write", "v1", 0), ("read", 1, 120), ("read", 2, 240)]
    )


def stale_timed():
    """s1 echoes a stale state from the start, s2 behind an inert ``timed``."""
    return (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=1)
        .with_faults("timed", count=1, inner="stale-echo", at=99)
        .with_operations([("write", "v1", 0), ("read", 1, 100), ("read", 1, 130)])
    )


STACKS = {"fault-free": (fault_free, False), "stale+timed": (stale_timed, False),
          "per-message": (stale_timed, True)}


def staggered(per_message):
    """Every schedule simulated inside runs under :class:`_Staggered`
    (per-message)."""
    if not per_message:
        return nullcontext()
    return mock.patch.object(explore_engine, "ControlledDelivery", _Staggered)


class Cell:
    """One configuration: its probe, its discovered alphabet, and the
    fingerprinted outcome of every decision set asked for so far."""

    def __init__(self, stack, granularity):
        build, self.per_message = STACKS[stack]
        self.probe = build()._schedule_probe(SearchBounds(granularity=granularity))
        self._outcomes = {}
        root = self.outcome(())
        links = set(root.expansions)
        for link in root.expansions:  # links only a held parent reaches
            links.update(self.outcome((link,)).expansions)
        self.holds = sorted(links, key=lambda link: link.sort_key)
        self.triggers = [
            [FaultTrigger(obj=obj, at=at) for at in range(seen + 1)]
            for obj, seen in root.fault_counts
        ]

    def outcome(self, decisions):
        decisions = canonical_decisions(decisions)
        if decisions not in self._outcomes:
            with staggered(self.per_message):
                self._outcomes[decisions] = run_schedule(self.probe.with_decisions(decisions))
        return self._outcomes[decisions]

    def decision_sets(self):
        """Up to three holds, and at most one trigger per faulted object (the
        explorer's own shape)."""
        triggers = [st.one_of(st.none(), st.sampled_from(points)) for points in self.triggers]
        return st.tuples(
            st.sets(st.sampled_from(self.holds), max_size=3), st.tuples(*triggers)
        ).map(lambda drawn: canonical_decisions(
            (*drawn[0], *(trigger for trigger in drawn[1] if trigger is not None))
        ))

    def neighbours(self, decisions):
        """``decisions`` with one hold toggled — where duplicates live."""
        return st.sampled_from(self.holds).map(
            lambda link: canonical_decisions(
                [d for d in decisions if d != link]
                + ([] if link in decisions else [link])
            )
        )


cell = cache(Cell)
CELLS = [(stack, granularity) for stack in STACKS for granularity in ("operation", "round")]


@pytest.mark.parametrize("stack,granularity", CELLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_equal_exactly_when_fingerprint_equal(stack, granularity, data):
    target = cell(stack, granularity)
    a = data.draw(target.decision_sets(), label="a")
    b = data.draw(st.one_of(target.decision_sets(), target.neighbours(a)), label="b")
    first, second = target.outcome(a), target.outcome(b)
    assert (first.trace_key == second.trace_key) == (first.trace_hash == second.trace_hash)


class TestEqualTracesFromDifferentDecisions:
    """What makes the property above non-vacuous, pinned by hand."""

    def test_two_trigger_points_before_any_change_of_state(self):
        # s2 freezes the state it echoes when it fires; after its second and
        # after its third message that state is the same, so is everything
        # it replies, and so is the whole trace.
        target = cell("stale+timed", "operation")
        early = target.outcome((FaultTrigger(obj=2, at=2),))
        late = target.outcome((FaultTrigger(obj=2, at=3),))
        assert early.decisions != late.decisions
        assert early.trace_hash == late.trace_hash
        assert early.trace_key == late.trace_key
        assert early.trace_hash != target.outcome(()).trace_hash
        assert early.trace_key != target.outcome(()).trace_key

    def test_a_hold_that_catches_nothing(self):
        # Two held round-1 links starve the first read's quorum, so its
        # round 2 never starts and a hold on it catches nothing.
        target = cell("fault-free", "round")
        starved = (HoldLink(2, 3, 1), HoldLink(2, 4, 1))
        plain = target.outcome(starved)
        padded = target.outcome(starved + (HoldLink(2, 1, 2),))
        assert plain.trace_hash == padded.trace_hash
        assert plain.trace_key == padded.trace_key == (18, 19)
        assert plain.held_messages == padded.held_messages == 2


def _recording(policy):
    """``policy``, listing every message it is asked about (through the
    instance, so the class keeps the shape it declares)."""
    policy.asked = []
    judge_one = policy.delay

    def delay(message, now):
        policy.asked.append(message)
        return judge_one(message, now)

    policy.delay = delay
    return policy


def _count_sends(monkeypatch):
    calls = []
    send = Network.send
    monkeypatch.setattr(Network, "send", lambda self, m: (calls.append(m), send(self, m)))
    return calls


@pytest.mark.parametrize("engine", ("production", "reference"))
@pytest.mark.parametrize("per_message", (False, True), ids=("fast-path", "per-message"))
def test_every_message_is_judged_once_in_send_order(
    engine, per_message, reference_engine, monkeypatch
):
    """The ``DeliveryPolicy`` contract the key rests on, on both network
    paths and both engines — and the key's ordinals index the SEND entries."""
    probe = stale_timed()._schedule_probe()
    holds = (HoldLink(1, 4), HoldLink(2, 3))
    built = []

    def adversary(behaviors):
        kind = _Staggered if per_message else ControlledDelivery
        policy = _recording(kind(holds=holds, faulted=behaviors))
        built.append(policy)
        return policy

    sends = _count_sends(monkeypatch)
    engine_scope = reference_engine() if engine == "reference" else nullcontext()
    with engine_scope, scoped_operation_serials():
        backend = build_backend(probe, adversary=adversary)
        backend.simulator.skip_busy_invocations = True
        for plan in probe.plans:
            backend.schedule(plan)
        backend.run()
    [policy] = built
    entries = backend.trace.entries
    sent = [m for _, kind, m in entries if kind is TraceKind.SEND]
    held = {id(m) for _, kind, m in entries if kind is TraceKind.HOLD}
    assert [id(m) for m in policy.asked] == [id(m) for m in sent]
    assert len(set(map(id, sent))) == len(sent)
    if per_message:
        assert len(sends) == len(sent)
    else:  # broadcasts take send_round; only the reference sends replies one by one
        assert all(m.is_reply for m in sends) and (engine == "reference" or not sends)
    *ordinals, digest = policy.trace_key
    assert ordinals == [i for i, m in enumerate(sent) if id(m) in held]
    assert len(ordinals) == len(held) == policy.held_messages > 0
    assert isinstance(digest, bytes) and len(digest) == 16


def _underprovisioned():
    return (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=2)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
        .check("atomicity")
    )


def test_a_search_renders_one_fingerprint_per_witness(monkeypatch):
    renders = []
    fingerprint = explore_engine.trace_fingerprint
    monkeypatch.setattr(
        explore_engine, "trace_fingerprint",
        lambda trace: renders.append(trace) or fingerprint(trace),
    )
    result = _underprovisioned().explore(max_holds=2)
    assert result.stats.explored == 37 and result.stats.minimization_runs > 0
    assert len(renders) == len(result.witnesses) == 2


def test_a_searched_outcome_never_reproduces_a_witness():
    witness = _underprovisioned().explore(max_holds=1).witnesses[0]
    searched = judge(simulate(witness.probe), witness.probe.checks)
    assert searched.trace_hash is None and searched.failures == witness.failures
    assert not witness.reproduces(searched)
    assert witness.reproduces(witness.replay())
