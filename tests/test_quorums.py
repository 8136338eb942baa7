"""Unit and property tests for quorum arithmetic."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.quorums.analysis import (
    is_masking_system,
    quorum_availability,
    threshold_family,
    threshold_fault_sets,
)
from repro.quorums.threshold import (
    ByzantineThresholds,
    CrashThresholds,
    certification_threshold,
    optimal_resilience_objects,
)
from repro.types import object_ids


def intersection_size(family):
    """Minimum pairwise intersection size (one quorum: its size; none: 0)."""
    quorums = list(family)
    if len(quorums) < 2:
        return len(quorums[0]) if quorums else 0
    return min(len(a & b) for a, b in combinations(quorums, 2))


def is_dissemination_system(family, fault_sets):
    """Malkhi–Reiter dissemination condition (self-verifying data): any two
    quorums intersect outside every fault set, and some quorum survives
    every fault set."""
    quorums, faults = list(family), [frozenset(b) for b in fault_sets]
    if any(a & b <= bad for a, b in combinations(quorums, 2) for bad in faults):
        return False
    return all(quorum_availability(quorums, bad) for bad in faults)


class TestThresholdBasics:
    def test_optimal_resilience(self):
        assert optimal_resilience_objects(0) == 1
        assert optimal_resilience_objects(1) == 4
        assert optimal_resilience_objects(3) == 10

    def test_certification(self):
        assert certification_threshold(2) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_resilience_objects(-1)


class TestCrashThresholds:
    def test_abd_configuration(self):
        th = CrashThresholds(S=3, t=1)
        assert th.quorum == 2
        assert 2 * th.quorum > th.S  # two quorums intersect

    def test_rejects_insufficient_objects(self):
        with pytest.raises(ConfigurationError):
            CrashThresholds(S=2, t=1)

    @given(st.integers(0, 15))
    def test_majority_always_intersects(self, t):
        th = CrashThresholds(S=2 * t + 1, t=t)
        assert 2 * th.quorum > th.S
        assert th.quorum <= th.S - th.t  # always reachable


class TestByzantineThresholds:
    def test_optimally_resilient(self):
        th = ByzantineThresholds.optimally_resilient(2)
        assert th.S == 7
        assert th.quorum == 5
        assert th.certify == 3

    def test_rejects_below_3t_plus_1(self):
        with pytest.raises(ConfigurationError):
            ByzantineThresholds(S=6, t=2)

    @given(st.integers(1, 20))
    def test_reply_sets_share_a_correct_object(self, t):
        th = ByzantineThresholds.optimally_resilient(t)
        # Two quorums share at least one *correct* object.
        assert 2 * th.quorum - th.S - th.t >= 1

    @given(st.integers(1, 20))
    def test_single_freshness_witness_at_optimal_resilience(self, t):
        # The phenomenon both lower bounds exploit: exactly ONE correct
        # fresh holder is guaranteed inside any later reply set.
        th = ByzantineThresholds.optimally_resilient(t)
        assert th.freshness_witnesses() == 1

    @given(st.integers(1, 10), st.integers(0, 10))
    def test_more_objects_give_more_witnesses(self, t, extra):
        th = ByzantineThresholds(S=3 * t + 1 + extra, t=t)
        assert th.freshness_witnesses() == 1 + extra

    @given(st.integers(1, 20))
    def test_complete_phase_has_correct_holders(self, t):
        th = ByzantineThresholds.optimally_resilient(t)
        # Correct objects guaranteed to store a phase a quorum acked.
        assert th.quorum - th.t == t + 1


class TestSetSystems:
    def test_intersection_size_of_majorities(self):
        objects = object_ids(5)
        family = threshold_family(objects, 3)
        assert intersection_size(family) == 1

    def test_intersection_edge_cases(self):
        assert intersection_size([]) == 0
        only = threshold_family(object_ids(3), 3)
        assert intersection_size(only) == 3

    def test_availability(self):
        objects = object_ids(4)
        family = threshold_family(objects, 3)
        assert quorum_availability(family, frozenset({objects[0]}))
        assert not quorum_availability(family, frozenset(objects[:2]))

    def test_dissemination_needs_3t_plus_1(self):
        # S = 4, t = 1: quorums of size 3, fault sets of size 1.
        objects = object_ids(4)
        family = threshold_family(objects, 3)
        faults = threshold_fault_sets(objects, 1)
        assert is_dissemination_system(family, faults)

    def test_dissemination_fails_at_3t(self):
        objects = object_ids(3)
        family = threshold_family(objects, 2)
        faults = threshold_fault_sets(objects, 1)
        assert not is_dissemination_system(family, faults)

    def test_masking_needs_4t_plus_1(self):
        objects = object_ids(5)
        family = threshold_family(objects, 4)
        faults = threshold_fault_sets(objects, 1)
        assert is_masking_system(family, faults)

    def test_masking_fails_at_3t_plus_1(self):
        # The reason 3t+1 protocols need write-backs and certification
        # instead of raw masking quorums.
        objects = object_ids(4)
        family = threshold_family(objects, 3)
        faults = threshold_fault_sets(objects, 1)
        assert not is_masking_system(family, faults)

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigurationError):
            is_masking_system([], [frozenset()])

    def test_threshold_family_validation(self):
        with pytest.raises(ConfigurationError):
            threshold_family(object_ids(3), 0)
        with pytest.raises(ConfigurationError):
            threshold_fault_sets(object_ids(3), 5)

    @pytest.mark.parametrize("t", [1, 2])
    def test_masking_threshold_property(self, t):
        """Masking holds at S = 4t+1 and fails at S = 4t (small t only:
        the check enumerates all quorum pairs × fault-set pairs)."""
        good = object_ids(4 * t + 1)
        assert is_masking_system(
            threshold_family(good, 3 * t + 1), threshold_fault_sets(good, t)
        )
        if t == 1:  # keep the combinatorics small
            bad = object_ids(4 * t)
            assert not is_masking_system(
                threshold_family(bad, 3 * t), threshold_fault_sets(bad, t)
            )
