"""Set-system analysis of quorum families.

Beyond threshold systems, the library can analyse explicit quorum families
(sets of object subsets): availability under fault sets and the
Malkhi–Reiter masking condition.  These back the resilience-frontier
benchmark (E7) and give property tests a second, independent route to the
threshold arithmetic.
"""

from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Collection, FrozenSet, Iterable

from repro.errors import ConfigurationError
from repro.types import ProcessId

QuorumFamily = Collection[FrozenSet[ProcessId]]


def quorum_availability(family: QuorumFamily, faulty: AbstractSet[ProcessId]) -> bool:
    """True when some quorum avoids every faulty object (liveness)."""
    return any(not (quorum & faulty) for quorum in family)


def is_masking_system(family: QuorumFamily, fault_sets: Iterable[AbstractSet[ProcessId]]) -> bool:
    """Malkhi–Reiter masking condition (unauthenticated data).

    For any quorums ``Q1, Q2`` and fault sets ``B1, B2``:
    ``(Q1 ∩ Q2) \\ B1 ⊄ B2`` — the correct part of the intersection cannot be
    out-voted by another fault set — and availability holds.  Threshold
    masking systems need ``S ≥ 4t + 1`` for *safe* reads without write-backs;
    the ``3t + 1`` protocols of this library sidestep masking by certifying
    values with ``t + 1`` identical reports instead.
    """
    quorums = list(family)
    if not quorums:
        raise ConfigurationError("empty quorum family")
    fault_list = [frozenset(b) for b in fault_sets]
    pairs = list(combinations(quorums, 2)) + [(q, q) for q in quorums]
    for a, b in pairs:
        core = a & b
        for bad1 in fault_list:
            survivors = core - bad1
            if any(survivors <= bad2 for bad2 in fault_list):
                return False
    return all(quorum_availability(quorums, bad) for bad in fault_list)


def threshold_family(objects: Collection[ProcessId], quorum_size: int) -> list[FrozenSet[ProcessId]]:
    """All subsets of ``objects`` of exactly ``quorum_size`` (small S only)."""
    pool = sorted(objects)
    if not 0 < quorum_size <= len(pool):
        raise ConfigurationError(
            f"quorum size {quorum_size} out of range for {len(pool)} objects"
        )
    return [frozenset(combo) for combo in combinations(pool, quorum_size)]


def threshold_fault_sets(objects: Collection[ProcessId], t: int) -> list[FrozenSet[ProcessId]]:
    """All subsets of ``objects`` of size exactly ``t`` (small S only)."""
    pool = sorted(objects)
    if not 0 <= t <= len(pool):
        raise ConfigurationError(f"t={t} out of range for {len(pool)} objects")
    if t == 0:
        return [frozenset()]
    return [frozenset(combo) for combo in combinations(pool, t)]
