"""The write-bound recurrence and its consequences (Lemmas 1–2, Prop. 2).

The heart of the write lower bound is the Fibonacci-like sequence

.. math::

    t_{-1} = t_0 = 0, \\qquad t_k = t_{k-1} + 2\\,t_{k-2} + 1,

whose closed form is ``t_k = (2^{k+2} − (−1)^k − 3) / 6`` (paper, proof of
Lemma 2).  ``t_k`` is the number of faults for which the proof defeats any
implementation with ``k``-round writes and 3-round reads at optimal
resilience; inverting gives the headline ``k ≤ ⌊log₂(⌈(3t+1)/2⌉)⌋`` bound,
i.e. ``Ω(log t)`` write rounds.  Proposition 2 then scales every block by
``c = ⌊t/t_k⌋`` to cover resilience up to ``S ≤ 3t + ⌊t/t_k⌋``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.errors import ConfigurationError


@lru_cache(maxsize=None)
def t_k(k: int) -> int:
    """The ``k``-th element of the recurrence (``t_{-1} = t_0 = 0``)."""
    if k < -1:
        raise ConfigurationError(f"k must be at least -1, got {k}")
    if k <= 0:
        return 0
    return t_k(k - 1) + 2 * t_k(k - 2) + 1


def closed_form(k: int) -> int:
    """``(2^{k+2} − (−1)^k − 3) / 6`` — must equal :func:`t_k` exactly."""
    if k < 0:
        raise ConfigurationError(f"closed form defined for k >= 0, got {k}")
    numerator = 2 ** (k + 2) - (-1) ** k - 3
    if numerator % 6:
        raise ArithmeticError(f"closed form not integral at k={k}")  # pragma: no cover
    return numerator // 6


def max_write_rounds(t: int, R: int | None = None) -> int:
    """Lemma 2's bound: writes need more than this many rounds.

    Returns ``min(R, ⌊log₂(⌈(3t+1)/2⌉)⌋)`` — for any ``k`` up to this value,
    no optimally-resilient implementation combines ``k``-round writes with
    3-round reads (given at least ``k`` readers).  ``R=None`` means
    unboundedly many readers.
    """
    if t < 1:
        raise ConfigurationError("the bound is stated for t >= 1")
    bound = math.floor(math.log2(math.ceil((3 * t + 1) / 2)))
    if R is None:
        return bound
    return min(R, bound)


def largest_k_for(t: int) -> int:
    """Largest ``k`` with ``t_k <= t`` (the instance the proof can afford)."""
    if t < 0:
        raise ConfigurationError("t must be non-negative")
    k = 0
    while t_k(k + 1) <= t:
        k += 1
    return k


def resilience_bound(t: int, k: int) -> int:
    """Proposition 2's resilience frontier: ``S ≤ 3t + ⌊t/t_k⌋``.

    The write lower bound holds for every implementation using at most this
    many objects (``t ≥ t_k`` required: the scaling factor ``c = t/t_k``
    must be at least one).
    """
    tk = t_k(k)
    if tk == 0:
        raise ConfigurationError("resilience scaling needs k >= 1")
    if t < tk:
        raise ConfigurationError(f"scaling needs t >= t_k = {tk}, got t={t}")
    return 3 * t + t // tk


def verify_log_identity(t: int) -> bool:
    """Check Lemma 2's inversion: ``t ≥ t_k ⟺ k ≤ ⌊log₂(⌈(3t+1)/2⌉)⌋``.

    Used by property tests: for every ``t``, the largest affordable ``k``
    from the recurrence equals the closed-form log bound.
    """
    return largest_k_for(t) == max_write_rounds(t)
