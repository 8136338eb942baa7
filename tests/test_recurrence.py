"""Unit and property tests for the write-bound recurrence (Lemma 2 math)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.recurrence import (
    closed_form,
    largest_k_for,
    max_write_rounds,
    resilience_bound,
    t_k,
    verify_log_identity,
)
from repro.errors import ConfigurationError


class TestRecurrence:
    def test_base_cases(self):
        assert t_k(-1) == 0
        assert t_k(0) == 0

    def test_paper_values(self):
        """t_1..t_4 = 1, 2, 5, 10 — the Figure 2 instance uses t_4 = 10."""
        assert [t_k(k) for k in range(1, 5)] == [1, 2, 5, 10]

    def test_recurrence_step(self):
        for k in range(1, 20):
            assert t_k(k) == t_k(k - 1) + 2 * t_k(k - 2) + 1

    def test_rejects_below_minus_one(self):
        with pytest.raises(ConfigurationError):
            t_k(-2)

    @given(st.integers(0, 60))
    def test_closed_form_matches_recurrence(self, k):
        """t_k = (2^{k+2} − (−1)^k − 3)/6, exactly (Lemma 2)."""
        assert closed_form(k) == t_k(k)

    @given(st.integers(1, 40))
    def test_strictly_increasing(self, k):
        assert t_k(k) > t_k(k - 1)

    @given(st.integers(1, 40))
    def test_roughly_doubles(self, k):
        """t_k ~ 2^{k+2}/6: each step roughly doubles (the log comes from here)."""
        assert 2 * t_k(k) <= t_k(k + 1) + 1
        assert t_k(k + 1) <= 2 * t_k(k) + 2


class TestLogBound:
    def test_paper_statement_k_of_t(self):
        # k <= floor(log2(ceil((3t+1)/2)))
        assert max_write_rounds(1) == 1
        assert max_write_rounds(2) == 2
        assert max_write_rounds(5) == 3
        assert max_write_rounds(10) == 4

    def test_reader_cap(self):
        assert max_write_rounds(10, R=2) == 2
        assert max_write_rounds(10, R=100) == 4

    @given(st.integers(1, 100_000))
    def test_log_identity(self, t):
        """Largest affordable k from the recurrence == the closed-form bound."""
        assert verify_log_identity(t)

    @given(st.integers(1, 10_000))
    def test_bound_is_logarithmic(self, t):
        import math

        k = max_write_rounds(t)
        assert k <= math.log2(3 * t + 1)
        assert k >= math.log2(t) / 2  # loose lower envelope: Ω(log t)

    def test_rejects_t_zero(self):
        with pytest.raises(ConfigurationError):
            max_write_rounds(0)


class TestResilienceScaling:
    def test_proposition_2_statement(self):
        # S <= 3t + floor(t/t_k)
        assert resilience_bound(10, 4) == 31
        assert resilience_bound(20, 4) == 62

    def test_needs_t_at_least_t_k(self):
        with pytest.raises(ConfigurationError):
            resilience_bound(4, 3)  # t_3 = 5 > 4

    def test_needs_positive_k(self):
        with pytest.raises(ConfigurationError):
            resilience_bound(5, 0)

    @given(st.integers(1, 8))
    def test_scaling_consistent_with_optimal_resilience(self, k):
        t = t_k(k)
        # At t exactly t_k the bound is 3t+1: optimal resilience.
        assert resilience_bound(t, k) == 3 * t + 1

    def test_largest_k_examples(self):
        assert largest_k_for(0) == 0
        assert largest_k_for(1) == 1
        assert largest_k_for(4) == 2
        assert largest_k_for(9) == 3
        assert largest_k_for(10) == 4
