"""General linearizability checking for read/write registers (Wing–Gong).

The SWMR atomicity checker exploits the single-writer structure; this module
implements the general definition instead: a history is linearizable iff
there is a total order of its operations, consistent with precedence, in
which every read returns the value of the latest preceding write (⊥ if
none).  Exponential in the worst case — meant for the small histories that
tests and the MWMR transformation produce — with memoization on explored
frontiers, which keeps realistic test histories fast.

The search runs on **integer bitmask frontiers**: the set of already-placed
operations is one ``int``, each operation's predecessors are a precomputed
mask, and "all predecessors placed" is ``pred_mask & ~done == 0``.  Memo
keys are ``(done, current)`` pairs of an int and a value — hashing an int is
an order of magnitude cheaper than hashing the ``frozenset`` frontiers the
first implementation used.  The search core (shared with
:func:`repro.consistency.kat.check_k_atomicity`) accumulates the order it
finds with append/pop backtracking instead of quadratic list copies.

Incomplete operations are handled per the standard definition: an incomplete
write may be taken to have happened (placed in the order) or not (dropped);
an incomplete read can always be dropped.

:func:`is_linearizable_reference` preserves the original frozenset-frontier
implementation verbatim as a differential-testing oracle: the property tests
and ``benchmarks/bench_perf.py`` pin the bitmask core to it on randomized
histories.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterator

from repro.spec.history import History, OperationRecord
from repro.types import BOTTOM


def _candidate_operations(history: History) -> list[OperationRecord]:
    """The operations the search places: complete ops plus pending writes.

    Pending reads can always be dropped from a linearization, so they never
    enter the search at all.
    """
    complete = [r for r in history.records if r.complete]
    pending_writes = [r for r in history.records if not r.complete and r.kind == "write"]
    return complete + pending_writes


def _search(operations: list[OperationRecord], k: int = 1) -> list[int] | None:
    """Shared search core: a linearization as operation indices, or None.

    A read may return any of the last ``k`` written values: at ``k = 1``
    (linearizability) the frontier carries the current value, at ``k > 1``
    (:func:`repro.consistency.kat.check_k_atomicity`, multi-writer) the
    window of them as a tuple — ⊥ scrolls out of it like any value.

    Dropped pending writes ("never took effect") are omitted from the
    returned order, matching the definition — a dropped write appears in no
    linearization.
    """
    if not operations:
        return []  # the empty order linearizes the empty history
    total = len(operations)
    full = (1 << total) - 1

    pred_masks = [0] * total
    for j, b in enumerate(operations):
        mask = 0
        for i, a in enumerate(operations):
            if i != j and a.precedes(b):
                mask |= 1 << i
        pred_masks[j] = mask

    # One flat tuple per operation so the search touches a single list:
    # (index, bit, predecessor mask, is-write, value).
    items = [
        (i, 1 << i, pred_masks[i], record.kind == "write", record.value)
        for i, record in enumerate(operations)
    ]
    # Pending writes may be dropped ("never took effect") instead of placed.
    optional = [entry for entry, record in zip(items, operations) if not record.complete]
    single = k == 1  # the frontier is then the bare current value, not a window

    def steps(done: int, current: Any) -> Iterator[tuple[int | None, int, Any]]:
        """The frontiers one placement away, in the order they are tried:
        ``(index placed or None for a dropped write, done, current)``."""
        not_done = ~done
        for i, bit, preds, is_write, value in items:
            if done & bit or preds & not_done:
                continue
            if is_write:
                yield i, done | bit, value if single else (current + (value,))[-k:]
            elif (value == current) if single else any(value == held for held in current):
                yield i, done | bit, current
        # An incomplete write whose predecessors are all done may also be
        # dropped: model "never took effect" by marking it done without
        # changing the current value (and without a place in the order).
        for _i, bit, preds, _is_write, _value in optional:
            if done & bit or preds & not_done:
                continue
            yield None, done | bit, current

    # Depth-first over an explicit stack of step iterators — one frame per
    # placed operation, so a long history cannot exhaust the interpreter's
    # recursion limit.  ``path`` holds the step each frame above the root
    # took; a frontier is memoised the first time it is entered.
    start = BOTTOM if single else (BOTTOM,)
    seen: set[tuple[int, Any]] = {(0, start)}
    path: list[int | None] = []
    stack = [steps(0, start)]
    while stack:
        for i, done, current in stack[-1]:
            if done == full:
                path.append(i)
                return [j for j in path if j is not None]
            key = (done, current)
            if key in seen:
                continue
            seen.add(key)
            path.append(i)
            stack.append(steps(done, current))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return None


def is_linearizable(history: History) -> bool:
    """Whether ``history`` is linearizable as a read/write register."""
    return _search(_candidate_operations(history)) is not None


def is_linearizable_reference(history: History) -> bool:
    """The original frozenset-frontier checker, kept as a test oracle.

    Algorithmically identical to :func:`is_linearizable` but memoizes on
    ``frozenset`` frontiers; property tests cross-validate the bitmask core
    against it on randomized histories, and the performance benchmark
    measures the speedup while asserting verdict equality.
    """
    operations = _candidate_operations(history)
    order_index = {record.op_id: i for i, record in enumerate(operations)}

    precedes: list[set[int]] = [set() for _ in operations]
    for i, a in enumerate(operations):
        for j, b in enumerate(operations):
            if i != j and a.precedes(b):
                precedes[j].add(i)

    optional = {order_index[r.op_id] for r in operations if not r.complete}
    total = len(operations)
    seen: set[tuple[FrozenSet[int], Any]] = set()

    def explore(done: frozenset[int], current: Any) -> bool:
        if len(done) == total:
            return True
        key = (done, current)
        if key in seen:
            return False
        seen.add(key)
        for i, record in enumerate(operations):
            if i in done or not precedes[i] <= done:
                continue
            if record.kind == "write":
                if explore(done | {i}, record.value):
                    return True
            else:
                if record.value == current and explore(done | {i}, current):
                    return True
        for i in optional:
            if i in done or not precedes[i] <= done:
                continue
            if explore(done | {i}, current):
                return True
        return False

    return explore(frozenset(), BOTTOM)
