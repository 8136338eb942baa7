"""k-atomicity: the bounded-staleness generalization of atomic registers.

A history is **k-atomic** when there is a linear extension of precedence in
which every read returns one of the ``k`` most recent preceding write values
(the initial ⊥ counts as write 0).  ``k = 1`` is atomicity; larger ``k``
admits reads that lag behind the freshest write by up to ``k − 1`` completed
writes — the observable contract of read replicas and caches.  The
formulation follows "On the k-Atomicity-Verification Problem" (PAPERS.md):
a valid assignment gives read ``rd`` a write index ``idx(rd)`` such that
``rd`` can be *placed* in the open window between ``wr_{idx}`` and
``wr_{idx+k}``, consistently with precedence.

Two checkers share the entry point :func:`check_k_atomicity`, and each is
the *same code* as its ``k = 1`` namesake in :mod:`repro.spec`:

* **single-writer** — the greedy pass of
  :func:`repro.spec.atomicity.check_swmr_atomicity`, exact for every ``k``
  (the paper's GPO greedy, specialized to the SWMR write order).  The one
  subtlety is that a read-monotonicity prefix-maximum over *indices* is
  *not* enough for ``k > 1``: two reads may each individually satisfy
  ``idx(rd2) ≥ idx(rd1) − (k−1)`` while no placement of both in their write
  windows respects their precedence.  The greedy therefore tracks the
  *placement segment* of each read — the write gap it sits in, at least its
  index and at least every really-preceding read's segment — and feeds the
  prefix-maximum of segments (not indices) into later floors.  At ``k = 1``
  segment and index coincide, so the pass is the atomicity checker exactly,
  including its greedy-minimal assignment and its diagnosis order.
* **multi-writer** — the Wing–Gong bitmask search of
  :mod:`repro.spec.linearizability` with the frontier value widened to the
  tuple of the last ``≤ k`` written values; exponential in the worst case,
  meant for the small histories tests and the MWMR transformation produce.

:func:`check_k_atomicity_reference` preserves a frozenset-frontier
brute-force search as the differential-testing oracle (the same pattern as
``is_linearizable_reference``), and :func:`atomicity_spectrum` reports the
smallest ``k`` a history satisfies.
"""

from __future__ import annotations

from typing import Any, FrozenSet

from repro.errors import SpecificationError
from repro.spec.atomicity import AtomicityVerdict, _greedy_swmr_pass
from repro.spec.history import History
from repro.spec.linearizability import _candidate_operations, _search
from repro.types import BOTTOM


def check_k_atomicity(history: History, k: int) -> AtomicityVerdict:
    """Whether ``history`` is k-atomic; exact for any ``k ≥ 1``.

    Single-writer histories go through the greedy placement pass (see the
    module docstring); multi-writer histories through the k-frontier
    search.  ``check_k_atomicity(h, 1)`` agrees verdict-for-verdict with
    the atomicity checkers.
    """
    if k < 1:
        raise SpecificationError(f"k-atomicity needs k >= 1, got {k}")
    if history.single_writer():
        return _greedy_swmr_pass(history, k, name_bound=True)
    ok = _search(_candidate_operations(history), k) is not None
    return AtomicityVerdict(
        ok=ok,
        explanation=(
            "" if ok else f"no {k}-atomic linearization of the multi-writer history exists"
        ),
    )


def check_k_atomicity_reference(history: History, k: int) -> bool:
    """Brute-force k-atomicity oracle on frozenset frontiers.

    Mirrors :func:`repro.spec.linearizability.is_linearizable_reference`
    with the k-deep value window; exact for any writer population, kept for
    differential testing of both fast paths.
    """
    if k < 1:
        raise SpecificationError(f"k-atomicity needs k >= 1, got {k}")
    operations = _candidate_operations(history)
    total = len(operations)

    precedes: list[set[int]] = [set() for _ in operations]
    for i, a in enumerate(operations):
        for j, b in enumerate(operations):
            if i != j and a.precedes(b):
                precedes[j].add(i)

    optional = {i for i, r in enumerate(operations) if not r.complete}
    seen: set[tuple[FrozenSet[int], Any]] = set()

    def explore(done: frozenset[int], recent: tuple[Any, ...]) -> bool:
        if len(done) == total:
            return True
        key = (done, recent)
        if key in seen:
            return False
        seen.add(key)
        for i, record in enumerate(operations):
            if i in done or not precedes[i] <= done:
                continue
            if record.kind == "write":
                window = (recent + (record.value,))[-k:]
                if explore(done | {i}, window):
                    return True
            elif any(record.value == held for held in recent):
                if explore(done | {i}, recent):
                    return True
        for i in optional:
            if i in done or not precedes[i] <= done:
                continue
            if explore(done | {i}, recent):
                return True
        return False

    return explore(frozenset(), (BOTTOM,))


def atomicity_spectrum(history: History, max_k: int | None = None) -> int | None:
    """The smallest ``k`` for which ``history`` is k-atomic, or ``None``.

    ``k = 1`` means the history is atomic.  Any history whose reads all
    return *some* written (or initial) value without reading from the
    future satisfies ``k = len(writes) + 1``, so the scan is bounded; a
    ``None`` result means validity itself (or a future read) is broken and
    no ``k`` helps.  ``max_k`` caps the scan for callers that only care
    about a prefix of the spectrum.
    """
    limit = max_k if max_k is not None else len(history.writes()) + 1
    for k in range(1, limit + 1):
        if check_k_atomicity(history, k).ok:
            return k
    return None
