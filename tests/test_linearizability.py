"""Unit and property tests for the general linearizability checker."""

import random
import sys

from hypothesis import given, settings, strategies as st

from repro.api import Cluster
from repro.consistency.kat import check_k_atomicity_reference
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.history import History, OperationRecord
from repro.spec.linearizability import (
    _candidate_operations,
    _search,
    is_linearizable,
    is_linearizable_reference,
)
from repro.types import BOTTOM, ProcessId, fresh_operation_id, reader_id, writer_id


def linearization_witness(history):
    """The order the search core found, as records (None: not linearizable)."""
    operations = _candidate_operations(history)
    indices = _search(operations)
    return None if indices is None else [operations[i] for i in indices]


def op(kind, client, inv, resp, value):
    return OperationRecord(
        op_id=fresh_operation_id(client, kind), kind=kind, client=client,
        invoked_at=inv, invocation_step=inv, value=value,
        responded_at=resp, response_step=resp,
    )


def mw(index):
    return ProcessId("writer", index)


class TestBasics:
    def test_empty(self):
        assert is_linearizable(History([]))

    def test_sequential(self):
        history = History([
            op("write", writer_id(), 1, 2, "a"),
            op("read", reader_id(1), 3, 4, "a"),
        ])
        assert is_linearizable(history)

    def test_stale_read_not_linearizable(self):
        history = History([
            op("write", writer_id(), 1, 2, "a"),
            op("write", writer_id(), 3, 4, "b"),
            op("read", reader_id(1), 5, 6, "a"),
        ])
        assert not is_linearizable(history)

    def test_pending_write_may_take_effect(self):
        history = History([
            op("write", writer_id(), 1, None, "a"),
            op("read", reader_id(1), 2, 3, "a"),
        ])
        assert is_linearizable(history)

    def test_pending_write_may_not_take_effect(self):
        history = History([
            op("write", writer_id(), 1, None, "a"),
            op("read", reader_id(1), 2, 3, BOTTOM),
        ])
        assert is_linearizable(history)

    def test_multi_writer_interleaving(self):
        history = History([
            op("write", mw(1), 1, 10, "a"),
            op("write", mw(2), 2, 11, "b"),
            op("read", reader_id(1), 12, 13, "a"),
        ])
        # 'b' can linearize before 'a' (they overlap): read of 'a' is fine.
        assert is_linearizable(history)

    def test_multi_writer_contradictory_reads(self):
        # rd1 sees a-then-b order, rd2 sees b-then-a; both sequential: impossible.
        history = History([
            op("write", mw(1), 1, 2, "a"),
            op("write", mw(2), 3, 4, "b"),
            op("read", reader_id(1), 5, 6, "a"),
        ])
        assert not is_linearizable(history)

    def test_witness_matches_decision(self):
        history = History([
            op("write", writer_id(), 1, 2, "a"),
            op("read", reader_id(1), 3, 4, "a"),
        ])
        witness = linearization_witness(history)
        assert witness is not None
        assert [w.value for w in witness] == ["a", "a"]

    def test_witness_none_when_impossible(self):
        history = History([op("read", reader_id(1), 1, 2, "ghost")])
        assert linearization_witness(history) is None


def _random_history(draw_ops):
    """Build a well-formed SWMR history from generated intervals."""
    records = []
    step = 0
    next_free = {"w": 0, 1: 0, 2: 0}
    for kind, client_key, value, gap, duration in draw_ops:
        start = max(next_free[client_key], step) + gap + 1
        end = start + duration + 1
        step = start
        client = writer_id() if client_key == "w" else reader_id(client_key)
        records.append(op(kind, client, start, end, value))
        next_free[client_key] = end
    return History(records)


@st.composite
def swmr_histories(draw):
    n = draw(st.integers(1, 6))
    entries = []
    write_values = iter(f"v{i}" for i in range(1, 10))
    for _ in range(n):
        if draw(st.booleans()):
            entries.append(("write", "w", next(write_values),
                            draw(st.integers(0, 3)), draw(st.integers(0, 6))))
        else:
            value = draw(st.sampled_from([BOTTOM, "v1", "v2", "v3"]))
            entries.append(("read", draw(st.sampled_from([1, 2])), value,
                            draw(st.integers(0, 3)), draw(st.integers(0, 6))))
    return _random_history(entries)


class TestCrossValidation:
    @given(swmr_histories())
    @settings(max_examples=120, deadline=None)
    def test_swmr_checker_agrees_with_wing_gong(self, history):
        """The fast SWMR checker and the general search must agree.

        This is the strongest correctness evidence for both: they implement
        the same specification through entirely different algorithms.
        """
        assert check_swmr_atomicity(history).ok == is_linearizable(history)


def _concurrent_history(seed, n_clients=6, ops_per_client=2, n_values=3):
    """Overlap-heavy multi-writer history with duplicated write values.

    Duplicate values multiply the feasible frontiers, which is exactly
    where the memoized search (and any bug in its memo keys) lives.
    """
    rng = random.Random(seed)
    records = []
    for index in range(n_clients):
        is_writer = index < n_clients // 2
        client = ProcessId("writer", index + 1) if is_writer else reader_id(index + 1)
        clock = rng.randint(1, 4)
        for _ in range(ops_per_client):
            duration = rng.randint(5, 25)
            value = f"v{rng.randint(1, n_values)}"
            responded = None if is_writer and rng.random() < 0.1 else clock + duration
            records.append(
                op("write" if is_writer else "read", client, clock, responded, value)
            )
            if responded is None:
                break  # a client never invokes past an incomplete operation
            clock = responded + rng.randint(1, 3)
    return History(records)


class TestBitmaskPinnedToReference:
    """The bitmask core must be indistinguishable from the frozenset oracle."""

    @given(swmr_histories())
    @settings(max_examples=120, deadline=None)
    def test_agrees_on_random_swmr_histories(self, history):
        assert is_linearizable(history) == is_linearizable_reference(history)

    def test_agrees_on_concurrent_multiwriter_histories(self):
        for seed in range(150):
            history = _concurrent_history(seed)
            assert is_linearizable(history) == is_linearizable_reference(history), (
                f"bitmask and reference disagree on seed {seed}:\n{history.describe()}"
            )

    def test_witness_decision_matches_and_replays(self):
        """A returned witness must actually *be* a linearization."""
        for seed in range(80):
            history = _concurrent_history(seed)
            witness = linearization_witness(history)
            assert (witness is not None) == is_linearizable(history)
            if witness is None:
                continue
            # Every complete operation appears exactly once (dropped pending
            # writes are allowed to be absent).
            complete_ids = {r.op_id for r in history.records if r.complete}
            witness_ids = [r.op_id for r in witness]
            assert len(witness_ids) == len(set(witness_ids))
            assert complete_ids <= set(witness_ids)
            # Precedence is respected and every read sees the latest write.
            positions = {r.op_id: i for i, r in enumerate(witness)}
            for a in witness:
                for b in witness:
                    if a.precedes(b):
                        assert positions[a.op_id] < positions[b.op_id]
            current = BOTTOM
            for record in witness:
                if record.kind == "write":
                    current = record.value
                else:
                    assert record.value == current


def _recursive_search(operations, k=1):
    """The search core as it was before the explicit stack: one Python
    frame per placed operation.  Kept as the order oracle."""
    total = len(operations)
    full = (1 << total) - 1
    items = []
    for j, b in enumerate(operations):
        preds = 0
        for i, a in enumerate(operations):
            if i != j and a.precedes(b):
                preds |= 1 << i
        items.append((j, 1 << j, preds, b.kind == "write", b.value))
    optional = [entry for entry, record in zip(items, operations) if not record.complete]
    seen = set()
    order = []
    single = k == 1

    def explore(done, current):
        if done == full:
            return True
        if (done, current) in seen:
            return False
        seen.add((done, current))
        for i, bit, preds, is_write, value in items:
            if done & bit or preds & ~done:
                continue
            if is_write:
                order.append(i)
                if explore(done | bit, value if single else (current + (value,))[-k:]):
                    return True
                order.pop()
            elif (value == current) if single else value in current:
                order.append(i)
                if explore(done | bit, current):
                    return True
                order.pop()
        for _i, bit, preds, _is_write, _value in optional:
            if not (done & bit or preds & ~done) and explore(done | bit, current):
                return True
        return False

    return order if explore(0, BOTTOM if single else (BOTTOM,)) else None


@st.composite
def multiwriter_histories(draw):
    """Small well-formed histories over two writers and two readers:
    overlapping intervals, duplicate and unwritten values, ⊥ reads, and
    incomplete writes (a client invokes nothing after one)."""
    records = []
    free = {}
    stopped = set()
    for _ in range(draw(st.integers(0, 7))):
        client = draw(st.sampled_from([mw(1), mw(2), reader_id(1), reader_id(2)]))
        if client in stopped:
            continue
        start = free.get(client, 0) + draw(st.integers(1, 4))
        if client.role_value == "writer":
            value = draw(st.sampled_from(["a", "b", "c"]))
            end = None if draw(st.integers(0, 5)) == 0 else start + draw(st.integers(0, 6))
            records.append(op("write", client, start, end, value))
            if end is None:
                stopped.add(client)
                continue
        else:
            end = start + draw(st.integers(0, 6))
            records.append(op("read", client, start, end,
                              draw(st.sampled_from([BOTTOM, "a", "b", "c"]))))
        free[client] = end
    return History(records)


def assert_valid_order(history, operations, indices, k):
    """``indices`` is a k-atomic linearization of ``history``: every complete
    operation once, precedence kept, each read within the last k writes."""
    placed = [operations[i] for i in indices]
    assert len(set(indices)) == len(indices)
    assert {r.op_id for r in history.records if r.complete} <= {r.op_id for r in placed}
    assert all(r.complete or r.kind == "write" for r in placed)
    for x, a in enumerate(placed):
        for b in placed[:x]:
            assert not a.precedes(b)
    window = (BOTTOM,)
    for record in placed:
        if record.kind == "write":
            window = (window + (record.value,))[-k:]
        else:
            assert record.value in window


class TestExplicitStackSearch:
    """``_search`` runs on an explicit stack: same verdicts, same orders."""

    @given(multiwriter_histories())
    @settings(max_examples=200, deadline=None)
    def test_k1_matches_the_oracles(self, history):
        operations = _candidate_operations(history)
        indices = _search(operations)
        assert (indices is not None) == is_linearizable_reference(history)
        assert indices == _recursive_search(operations)
        if indices is not None:
            assert_valid_order(history, operations, indices, k=1)

    @given(multiwriter_histories())
    @settings(max_examples=200, deadline=None)
    def test_k2_matches_the_oracles(self, history):
        operations = _candidate_operations(history)
        indices = _search(operations, k=2)
        assert (indices is not None) == check_k_atomicity_reference(history, 2)
        assert indices == _recursive_search(operations, k=2)
        if indices is not None:
            assert_valid_order(history, operations, indices, k=2)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        """A sequential history longer than the recursion limit still
        linearizes, in plan order."""
        length = sys.getrecursionlimit() + 200
        records = [
            op("write" if i % 2 == 0 else "read", writer_id() if i % 2 == 0 else reader_id(1),
               2 * i + 1, 2 * i + 2, f"v{i // 2}")
            for i in range(length)
        ]
        operations = _candidate_operations(History(records))
        assert _search(operations) == list(range(length))

    def test_long_mwmr_trial_gets_a_verdict(self):
        """1280 operations on mw-abd: the run that used to raise RecursionError."""
        result = (
            Cluster("mw-abd", t=1, n_readers=2, n_writers=2, backend="multi-writer")
            .with_workload(reads=0.5, spacing=10, operations=1280)
            .check("atomicity")
            .run(trials=1, seed=11, keep_history=False)
        )
        (trial,) = result.trials
        assert trial.checks["atomicity"].ok
